"""Synthetic grasp-and-place episode generator.

Each episode follows one script: a persona stands near a shelf, reaches
for an object with a minimum-jerk wrist profile, carries it to one of
four seat positions around a table (chosen by a persona-biased
categorical), and places it at a free spot in front of that seat.
Distractor objects already on the table make some regions invalid, so
placement requires clearance checking.

Personas differ in seat preference, walking speed, movement noise, and
small grasp-style offsets, which gives the affordance models test-time
variation that is not present in training (episodes are split by
persona, never by episode).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .. import scene as sc

HZ = 20
DT = 1.0 / HZ

TABLE = sc.SupportPlane("table", (0.0, 0.0), (1.6, 0.8), 0.72)
BIG_SHELF = sc.SupportPlane("big_shelf", (-2.2, 1.2), (0.8, 0.3), 1.0)
SMALL_SHELF = sc.SupportPlane("small_shelf", (2.2, 1.2), (0.4, 0.3), 0.9)
PLANES = {"table": TABLE, "big_shelf": BIG_SHELF, "small_shelf": SMALL_SHELF}

# standing spots for the four seats (two per long table side)
SEATS = np.array([(-0.45, -0.85), (0.45, -0.85), (-0.45, 0.85), (0.45, 0.85)])

OBJECT_EXTENTS = {"cup": (0.04, 0.04), "plate": (0.11, 0.11),
                  "jug": (0.05, 0.07), "bowl": (0.08, 0.08)}
GRASP_HEIGHT = {"cup": 0.05, "plate": 0.02, "jug": 0.10, "bowl": 0.04}
GRASP_SIDE = {"cup": 0.03, "plate": 0.10, "jug": 0.06, "bowl": 0.07}
GRASP_NOISE = 0.02  # per-episode label jitter, meters

PELVIS_HEIGHT = 0.95
CARRY_OFFSET = np.array([0.25, 0.0, 0.15])  # forward/up of the pelvis
REST_OFFSET = np.array([0.15, -0.22, -0.25])
HOVER = 0.10
LOWER_TO = 0.05  # wrist height above the plane at the place contact


class GeneratorError(RuntimeError):
    """Could not produce a feasible episode."""


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int = 0
    personas: int = 5
    episodes_per_persona: int = 24
    path_jitter: float = 0.008
    timing_jitter: float = 0.1

    def __post_init__(self):
        if self.personas < 2:
            raise GeneratorError("need >= 2 personas for a subject-level split")
        if self.episodes_per_persona < 1:
            raise GeneratorError("episodes_per_persona must be >= 1")


@dataclass(frozen=True)
class Event:
    kind: str  # "grasp" or "place"
    object_id: str
    surface: str
    time: float
    point: tuple  # 3D world contact point


@dataclass
class Episode:
    persona: int
    index: int
    timestamps: np.ndarray  # (T,)
    joints: np.ndarray  # (T, 13, 3)
    object_track: np.ndarray  # (T, 3) target object position
    target_type: str
    source_surface: str
    objects: list  # distractor SceneObjects on the table
    events: list  # [Event, ...], temporally ordered

    def __len__(self):
        return len(self.timestamps)

    def frame_at(self, t):
        return int(round(t / DT))


@dataclass(frozen=True)
class Persona:
    seat_bias: np.ndarray
    speed: float
    noise: float
    grasp_jitter: np.ndarray


def persona_profile(config, persona):
    rng = np.random.default_rng([config.seed, 7919, persona])
    return Persona(
        seat_bias=rng.dirichlet(np.full(4, 0.35)),
        speed=rng.uniform(0.75, 1.2),
        noise=rng.uniform(0.6, 1.4) * config.path_jitter,
        grasp_jitter=rng.uniform(-0.01, 0.01, size=3),
    )


def minimum_jerk(tau):
    """Smooth 0 -> 1 profile with zero boundary velocity/acceleration."""
    tau = np.minimum(np.maximum(0.0, tau), 1.0)
    return 10 * tau ** 3 - 15 * tau ** 4 + 6 * tau ** 5


def _moving_average(x, size):
    """Centred moving average of odd width along axis 0, edges repeated.

    A running sum: the first window added in order, then each difference
    ``x[i + size] - x[i]``, every partial sum divided by ``size``.  This
    is the order of ``scipy.ndimage.uniform_filter1d(x, size, axis=0,
    mode="nearest")`` and gives its bits.
    """
    n = len(x)
    index = np.arange(n + size - 1) - size // 2
    padded = x[np.minimum(np.maximum(0, index), n - 1)]
    steps = padded.copy()
    steps[size:] -= padded[:-size]
    return np.cumsum(steps, axis=0)[size - 1:] / size


def _smooth_noise(rng, frames, scale):
    raw = rng.normal(size=(frames, 3))
    return scale * _moving_average(raw, 9)


def _place_distractors(rng, count):
    """Center-band clutter plus a chance of one obstacle per seat zone,
    as (objects, the table's feature grid with all of them).

    Keeping obstacles concentrated along the table's long axis means an
    uncertain placement posterior averaged over seats lands in occupied
    space, so predicting a valid point requires resolving which seat is
    intended and where its free space is.
    """
    objects = []
    occupancy = np.zeros((sc.GRID, sc.GRID))

    def add(obj):
        nonlocal occupancy
        objects.append(obj)
        occupancy = np.maximum(occupancy, sc.rasterize_occupancy(TABLE, [obj]))

    def try_place(k, lo, hi):
        otype = rng.choice(sc.MOVABLE_TYPES)
        ext = OBJECT_EXTENTS[otype]
        grid = sc.feature_grid(TABLE, occupancy)  # objects fixed until placed
        # all 40 candidates in one draw and one test; the stream then goes
        # back and draws up to the first valid one, as a loop that stops
        # there would have
        state = rng.bit_generator.state
        ok = sc.is_valid_placement(rng.uniform(lo, hi, size=(40, 2)), TABLE,
                                   max(ext) + 0.01, grid)
        if ok.any():
            rng.bit_generator.state = state
            p = rng.uniform(lo, hi, size=(np.argmax(ok) + 1, 2))[-1]
            add(sc.SceneObject(
                f"distractor{k}", otype,
                (TABLE.frame_origin[0] + p[0], TABLE.frame_origin[1] + p[1],
                 TABLE.height),
                rng.uniform(0, np.pi), ext))

    # clutter fills the table middle and the dead zones between seats, so
    # an uninformed "somewhere open" guess rarely lands on free area; the
    # free cells that remain concentrate around the seat anchors
    for k in range(count):
        try_place(k, (-0.3, -0.3), (0.3, 0.3))
    for k in range(count, count + 2):
        try_place(k, (-0.6, -0.12), (0.6, 0.12))
    # with probability 0.65 a cluster blocks the seat anchor: plates on the
    # anchor and toward the rim, and a bowl sealing one x-side at random.
    # The place point then shifts a couple of decimeters toward the one
    # free side, in a direction that only the occupancy grid reveals.
    for seat in range(4):
        if rng.random() < 0.65:
            side = np.sign(SEATS[seat][1])
            ax, ay = SEATS[seat][0], side * 0.20
            free_sign = 1.0 if rng.random() < 0.5 else -1.0
            cluster = (("plate", 0.0, 0.0),
                       ("plate", 0.0, side * 0.13),
                       ("bowl", -free_sign * 0.20, 0.0))
            for j, (otype, ox, oy) in enumerate(cluster):
                add(sc.SceneObject(
                    f"blocker{seat}_{j}", otype,
                    (TABLE.frame_origin[0] + ax + ox,
                     TABLE.frame_origin[1] + ay + oy, TABLE.height),
                    0.0, OBJECT_EXTENTS[otype]))
    return objects, sc.feature_grid(TABLE, occupancy)


def _sample_place_point(rng, seat, grid, radius):
    """Contact in front of the chosen seat: the valid cell center nearest
    a jittered seat anchor, so the label is a function of the occupancy
    in the table's feature grid ``grid``.

    People place with a margin, so cells are preferred when they stay
    valid with one extra cell of clearance; boundary-hugging cells are a
    fallback when no roomy cell is close.
    """
    side = np.sign(SEATS[seat][1])
    anchor = np.array([SEATS[seat][0] + rng.normal(0, 0.04),
                       side * (0.20 + rng.normal(0, 0.03))])
    cells = sc.cell_geometry(TABLE.extent).cells
    cells = cells[np.sign(cells[:, 1]) == side]
    for r in (radius + max(TABLE.cell_size), radius):
        ok = sc.is_valid_placement(cells, TABLE, r, grid)
        if ok.any():
            break
    # the norm of one 2-vector is the sqrt of a BLAS dot; a per-row matmul
    # rounds the same way, and that rounding decides near-ties between cells
    diff = cells - anchor
    dist = np.where(ok, np.sqrt(diff[:, None, :] @ diff[:, :, None])[:, 0, 0],
                    np.inf)
    k = np.argmin(dist)
    if dist[k] > 0.45:
        return None
    best = cells[k]
    jitter = best + rng.uniform(-0.015, 0.015, size=2)
    if sc.is_valid_placement(jitter, TABLE, radius, grid):
        return jitter
    return best


def _attempt_episode(config, persona_id, index, attempt):
    rng = np.random.default_rng([config.seed, persona_id, index, attempt])
    profile = persona_profile(config, persona_id)

    target_type = rng.choice(sc.MOVABLE_TYPES)
    ext = OBJECT_EXTENTS[target_type]
    surface = rng.choice(("big_shelf", "small_shelf"))
    shelf = PLANES[surface]
    shelf_xy = shelf.to_world(rng.uniform((-0.25, -0.05), (0.25, 0.05))
                              * (np.array(shelf.extent) / np.array((0.8, 0.3))))
    object_start = np.array([shelf_xy[0], shelf_xy[1], shelf.height])

    distractors, table_grid = _place_distractors(rng, rng.integers(3, 6))
    seat = int(rng.choice(4, p=profile.seat_bias))
    contact2 = _sample_place_point(rng, seat, table_grid, max(ext) + 0.005)
    if contact2 is None:
        return None, f"no valid cell near seat {seat}"
    contact = np.array([contact2[0], contact2[1], TABLE.height])

    jit = 1.0 + config.timing_jitter * rng.uniform(-1, 1)
    n_idle = int(round(rng.uniform(1.0, 1.6) * jit / DT))
    n_reach = int(round(rng.uniform(1.1, 1.5) * jit / DT))
    start_pos = np.array([object_start[0] + rng.uniform(-0.35, 0.35),
                          object_start[1] - 0.55])
    seat_pos = SEATS[seat]
    walk_time = np.linalg.norm(seat_pos - start_pos) / (0.8 * profile.speed)
    n_carry = int(round(min(max(walk_time * jit, 3.2), 5.5) / DT))
    n_blend = int(round(rng.uniform(1.3, 1.7) / DT))  # place reach, inside carry
    n_lower = int(round(0.5 / DT))
    n_retract = int(round(rng.uniform(0.8, 1.4) / DT))
    total = n_idle + n_reach + n_carry + n_lower + n_retract
    minimum = int(round(8.2 / DT))
    if total < minimum:  # pad the idle phase on short walks
        n_idle += minimum - total
        total = minimum

    # grasp on the side of the object facing the person's approach; the
    # per-episode jitter puts a shared noise floor under both posteriors
    approach = start_pos - object_start[:2]
    approach = approach / np.linalg.norm(approach)
    grasp_point = object_start \
        + GRASP_SIDE[target_type] * np.array([approach[0], approach[1], 0.0]) \
        + np.array([0.0, 0.0, 0.6 * GRASP_HEIGHT[target_type]]) \
        + profile.grasp_jitter + rng.normal(0.0, GRASP_NOISE, size=3)
    hover_point = contact + np.array([0.0, 0.0, HOVER])
    lower_point = contact + np.array([0.0, 0.0, LOWER_TO])

    # pelvis path: idle + reach at the shelf, min-jerk walk to the seat
    pelvis = np.zeros((total, 2))
    pelvis[:n_idle + n_reach] = start_pos
    tau = minimum_jerk(np.arange(n_carry) / max(n_carry - 1, 1))
    pelvis[n_idle + n_reach:n_idle + n_reach + n_carry] = \
        start_pos + tau[:, None] * (seat_pos - start_pos)
    pelvis[n_idle + n_reach + n_carry:] = seat_pos

    # wrist script
    wrist = np.zeros((total, 3))
    rest = np.concatenate([start_pos, [PELVIS_HEIGHT]]) + REST_OFFSET
    wrist[:n_idle] = rest
    tau = minimum_jerk(np.arange(n_reach) / max(n_reach - 1, 1))[:, None]
    wrist[n_idle:n_idle + n_reach] = rest + tau * (grasp_point - rest)
    carry_lo = n_idle + n_reach
    carry = np.concatenate(
        [pelvis[carry_lo:carry_lo + n_carry],
         np.full((n_carry, 1), PELVIS_HEIGHT)], axis=1) + CARRY_OFFSET
    carry[0] = grasp_point  # continuity at the grasp moment
    blend_lo = n_carry - n_blend
    s = minimum_jerk(np.arange(n_blend) / max(n_blend - 1, 1))[:, None]
    carry[blend_lo:] = (1 - s) * carry[blend_lo:] + s * hover_point
    wrist[carry_lo:carry_lo + n_carry] = carry
    lower_lo = carry_lo + n_carry
    tau = minimum_jerk(np.arange(n_lower) / max(n_lower - 1, 1))[:, None]
    wrist[lower_lo:lower_lo + n_lower] = hover_point + tau * (lower_point - hover_point)
    retract_lo = lower_lo + n_lower
    seat_rest = np.concatenate([seat_pos, [PELVIS_HEIGHT]]) + REST_OFFSET
    tau = minimum_jerk(np.arange(n_retract) / max(n_retract - 1, 1))[:, None]
    wrist[retract_lo:] = lower_point + tau * (seat_rest - lower_point)

    grasp_frame = n_idle + n_reach - 1
    place_frame = retract_lo - 1
    t_grasp = grasp_frame * DT
    t_place = place_frame * DT
    if not (8.0 <= total * DT <= 15.0):
        return None, f"episode length {total * DT:.1f}s out of range"

    # heading: direction of pelvis motion, facing the table when still
    vel = np.gradient(pelvis, axis=0)
    speed = np.linalg.norm(vel, axis=1)
    heading = np.zeros(total)
    to_table = -pelvis
    default = np.arctan2(to_table[:, 1], to_table[:, 0])
    current = default[0]
    for i in range(total):
        if speed[i] * HZ > 0.15:
            current = np.arctan2(vel[i, 1], vel[i, 0])
        elif i >= place_frame - n_blend:
            current = default[i]
        heading[i] = current
    heading = _moving_average(heading, 7)

    joints = _skeleton(rng, pelvis, heading, wrist, profile.noise)

    # the scripted right wrist keeps only the smallest noise so contacts stay honest
    joints[:, sc.R_WRIST] = wrist + _smooth_noise(rng, total, 0.3 * profile.noise)

    track = np.zeros((total, 3))
    track[:grasp_frame + 1] = object_start
    held = joints[grasp_frame + 1:place_frame + 1, sc.R_WRIST].copy()
    held[:, 2] -= GRASP_HEIGHT[target_type]
    track[grasp_frame + 1:place_frame + 1] = held
    track[place_frame:] = contact

    events = [
        Event("grasp", "target", surface, round(t_grasp, 6), tuple(grasp_point)),
        Event("place", "target", "table", round(t_place, 6), tuple(contact)),
    ]
    return Episode(
        persona=persona_id, index=index,
        timestamps=np.arange(total) * DT, joints=joints,
        object_track=track, target_type=target_type, source_surface=surface,
        objects=distractors, events=events), None


def _skeleton(rng, pelvis, heading, wrist, noise):
    total = len(pelvis)
    c, s = np.cos(heading), np.sin(heading)
    fwd = np.stack([c, s, np.zeros(total)], axis=1)
    left = np.stack([-s, c, np.zeros(total)], axis=1)
    up = np.array([0.0, 0.0, 1.0])
    base = np.concatenate([pelvis, np.full((total, 1), PELVIS_HEIGHT)], axis=1)

    joints = np.zeros((total, sc.NUM_JOINTS, 3))
    j = {name: sc.JOINT_NAMES.index(name) for name in sc.JOINT_NAMES}
    joints[:, j["pelvis"]] = base
    joints[:, j["spine"]] = base + 0.25 * up
    joints[:, j["head"]] = base + 0.62 * up
    joints[:, j["l_shoulder"]] = base + 0.45 * up + 0.19 * left
    joints[:, j["r_shoulder"]] = base + 0.45 * up - 0.19 * left
    joints[:, j["l_wrist"]] = base + 0.12 * fwd + 0.26 * left - 0.25 * up
    joints[:, j["r_wrist"]] = wrist
    joints[:, j["l_elbow"]] = 0.5 * (joints[:, j["l_shoulder"]]
                                     + joints[:, j["l_wrist"]]) + 0.05 * left
    joints[:, j["r_elbow"]] = 0.5 * (joints[:, j["r_shoulder"]]
                                     + joints[:, j["r_wrist"]]) - 0.05 * left
    joints[:, j["l_knee"]] = base + 0.10 * left - 0.45 * up + 0.03 * fwd
    joints[:, j["r_knee"]] = base - 0.10 * left - 0.45 * up + 0.03 * fwd
    joints[:, j["l_ankle"]] = base + 0.11 * left - 0.88 * up
    joints[:, j["r_ankle"]] = base - 0.11 * left - 0.88 * up
    for idx in range(sc.NUM_JOINTS):
        if idx != j["r_wrist"]:
            joints[:, idx] += _smooth_noise(rng, total, noise)
    return joints


def generate_episode(config, persona_id, index):
    """One feasible episode; regenerates an infeasible scene up to 20 times."""
    notes = []
    for attempt in range(20):
        episode, reason = _attempt_episode(config, persona_id, index, attempt)
        if episode is not None:
            return episode
        notes.append(f"attempt {attempt}: {reason}")
    raise GeneratorError(
        f"persona {persona_id} episode {index} infeasible: " + "; ".join(notes))


def train_personas(config):
    n_train = max(1, min(config.personas - 1,
                         int(np.ceil(config.personas * 3 / 5))))
    return list(range(n_train))


def generate_dataset(config):
    """(train_episodes, test_episodes), split by persona."""
    train_ids = set(train_personas(config))
    train, test = [], []
    for persona in range(config.personas):
        bucket = train if persona in train_ids else test
        for index in range(config.episodes_per_persona):
            bucket.append(generate_episode(config, persona, index))
    return train, test


# ---------------------------------------------------------------------------
# JSONL serialization: scene record, frame records, events record


def episode_to_jsonl(episode):
    lines = [json.dumps({
        "type": "scene", "persona": episode.persona, "index": episode.index,
        "target_type": episode.target_type,
        "source_surface": episode.source_surface,
        "scene": sc.scene_to_dict(list(PLANES.values()), episode.objects),
    }, sort_keys=True)]
    for i in range(len(episode)):
        lines.append(json.dumps({
            "type": "frame", "t": round(float(episode.timestamps[i]), 6),
            "joints": episode.joints[i].tolist(),
            "object": episode.object_track[i].tolist(),
        }, sort_keys=True))
    lines.append(json.dumps({
        "type": "events",
        "events": [{"kind": e.kind, "object_id": e.object_id,
                    "surface": e.surface, "time": e.time,
                    "point": list(e.point)} for e in episode.events],
    }, sort_keys=True))
    return "\n".join(lines) + "\n"


def episode_from_jsonl(text):
    """Parse an episode written by ``episode_to_jsonl``.

    Malformed input raises ValueError naming the problem: a line that is
    not a JSON object, a record without one of its fields, a record whose
    type is not scene, frame or events, a missing scene or events record,
    frame arrays that are ragged, of the wrong shape or not finite, a
    scene object whose position is not 3-d or whose footprint is not 2-d,
    an event whose time or 3-d point is not finite, an event whose time
    falls on no frame (``Episode.frame_at`` outside ``[0, len - 1]``), and
    an unknown target type or source surface.
    """
    joints, track, times = [], [], []
    head = events = None
    try:
        for lineno, line in enumerate(text.strip().split("\n"), 1):
            rec = json.loads(line)
            kind = rec["type"]
            if kind == "scene":
                head = rec
            elif kind == "frame":
                times.append(rec["t"])
                joints.append(rec["joints"])
                track.append(rec["object"])
            elif kind == "events":
                events = [Event(e["kind"], e["object_id"], e["surface"],
                                float(e["time"]), tuple(map(float, e["point"])))
                          for e in rec["events"]]
            else:
                raise ValueError(f"episode JSONL line {lineno}: unknown record "
                                 f"type {kind!r}")
    except KeyError as exc:
        raise ValueError(f"episode JSONL line {lineno}: record has no "
                         f"{exc.args[0]!r} field") from None
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"episode JSONL line {lineno}: malformed record "
                         f"({exc})") from None
    if head is None:
        raise ValueError("episode JSONL has no scene record")
    if events is None:
        raise ValueError("episode JSONL has no events record")
    try:
        _, objects = sc.scene_from_dict(head["scene"])
        fields_ = {k: head[k] for k in
                   ("persona", "index", "target_type", "source_surface")}
        timestamps = np.array(times, dtype=float)
        joints = np.array(joints, dtype=float)
        track = np.array(track, dtype=float)
    except KeyError as exc:
        raise ValueError(f"episode JSONL scene record has no "
                         f"{exc.args[0]!r} field") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"episode JSONL: malformed record ({exc})") from None
    n = len(timestamps)
    if n == 0 or joints.shape != (n, sc.NUM_JOINTS, 3) or track.shape != (n, 3):
        raise ValueError(f"episode JSONL frames must hold {sc.NUM_JOINTS}x3 joints "
                         f"and a 3-d object position; got {n} times, joints "
                         f"{joints.shape}, object {track.shape}")
    if not (np.isfinite(timestamps).all() and np.isfinite(joints).all()
            and np.isfinite(track).all()):
        raise ValueError("episode JSONL frames hold non-finite values")
    for e in events:
        if len(e.point) != 3 or not np.isfinite((e.time,) + e.point).all():
            raise ValueError(f"episode JSONL {e.kind!r} event needs a finite "
                             f"time and a finite 3-d point")
    if not (isinstance(fields_["persona"], int) and isinstance(fields_["index"], int)):
        raise ValueError("episode JSONL persona and index must be integers")
    if fields_["target_type"] not in sc.MOVABLE_TYPES \
            or fields_["source_surface"] not in sc.SUPPORT_TYPES:
        raise ValueError(f"episode JSONL has unknown target type "
                         f"{fields_['target_type']!r} or source surface "
                         f"{fields_['source_surface']!r}")
    episode = Episode(timestamps=timestamps, joints=joints, object_track=track,
                      objects=objects, events=events, **fields_)
    for e in events:
        # the first test keeps time / DT finite for frame_at's int()
        if not (abs(e.time) <= n * DT and 0 <= episode.frame_at(e.time) < n):
            raise ValueError(f"episode JSONL {e.kind!r} event at {e.time} s "
                             f"falls outside the {n} frames")
    return episode
