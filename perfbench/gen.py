"""Seeded generator for the benchmark's hs327-shaped input files.

The shape follows the high-school face-to-face study of Mastrandrea,
Fournet & Barrat (PLoS ONE 10(9), 2015): 327 students in 9 classes,
contacts on a 20 s grid over five school days, plus a friendship
network. Students meet in small groups drawn mostly from friendship
circles inside their class, and also have short random encounters.

Every file is a pure function of (kind, seed): the same seed gives
byte-identical files. Only the standard library's `random.Random` is
used, so the files do not depend on hash ordering.

Files written (kind -> names):

* ``hs``       triples `t u v` (~32k rows) and ``attributes.csv``
* ``contacts`` the full-size `t i j Ci Cj` export (~190k rows) and
  ``attributes.csv``
* ``directed`` directed triples `t src dst` (120 nodes, 2 days) and
  ``attributes.csv``

Attributes are `node,item;item;...` rows with items `C_<class>`,
`G_<gender>` (not in the directed set) and `F_<id>` (one per friend).

Run `python3 perfbench/gen.py KIND SEED OUTDIR` to write one set.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

T0 = 1385982020  # first timestamp of the 2013 export (epoch seconds)
STEP = 20
DAY = 86400
DAY_STEPS = 1740  # 9 h 40 min of school day

HS_CLASSES = (
    ("2BIO1", 37), ("2BIO2", 33), ("2BIO3", 40), ("MP", 33), ("MP*1", 29),
    ("MP*2", 38), ("PC", 44), ("PC*", 39), ("PSI*", 34),
)
DIRECTED_CLASSES = (("A", 30), ("B", 30), ("C", 30), ("D", 30))

# (days, group meetings per class and day, meeting length in steps,
#  random encounters per day)
SHAPES = {
    "hs": (5, 12, (2, 8), 2400),
    "contacts": (5, 46, (10, 40), 3000),
    "directed": (2, 20, (3, 12), 300),
}
KINDS = tuple(SHAPES)
GROUP_SIZES = (2, 2, 3, 2, 3, 4, 2, 2, 3, 5, 2, 3, 4, 2, 6)


class Population:
    """Students with classes, genders, friendship circles and friends."""

    def __init__(self, rng: random.Random, classes: Sequence[Tuple[str, int]],
                 genders: bool = True):
        total = sum(size for _, size in classes)
        ids = sorted(rng.sample(range(1, 2000), total))
        rng.shuffle(ids)
        self.nodes: List[str] = [str(i) for i in ids]
        self.klass: Dict[str, str] = {}
        self.members: Dict[str, List[str]] = {}
        pos = 0
        for name, size in classes:
            self.members[name] = self.nodes[pos:pos + size]
            for v in self.members[name]:
                self.klass[v] = name
            pos += size
        self.gender = {v: rng.choice(("F", "M", "M", "F", "M", "")) if genders else ""
                       for v in self.nodes}

        # friendship circles of 4-7 classmates; friends are mostly circle mates
        self.circles: Dict[str, List[List[str]]] = {}
        self.friends: Dict[str, set] = {v: set() for v in self.nodes}
        for name, group in self.members.items():
            order = list(group)
            rng.shuffle(order)
            circles = []
            while order:
                size = 4 + len(circles) % 4
                if len(order) - size < 4:
                    size = len(order)
                circles.append(order[:size])
                order = order[size:]
            self.circles[name] = circles
            # each student befriends the next two around their circle
            for circle in circles:
                for i, u in enumerate(circle):
                    for d in (1, 2):
                        self._befriend(u, circle[(i + d) % len(circle)])
            for _ in range(len(group) // 2):
                self._befriend(*rng.sample(group, 2))
        for _ in range(total // 2):
            self._befriend(*rng.sample(self.nodes, 2))

    def _befriend(self, u: str, v: str) -> None:
        self.friends[u].add(v)
        self.friends[v].add(u)

    def attribute_lines(self) -> List[str]:
        lines = []
        for v in self.nodes:
            items = [f"C_{self.klass[v]}"]
            if self.gender[v]:
                items.append(f"G_{self.gender[v]}")
            items.extend(f"F_{w}" for w in sorted(self.friends[v], key=int))
            lines.append(f"{v},{';'.join(items)}")
        return lines


def _contacts(rng: random.Random, pop: Population, kind: str) -> List[Tuple[int, str, str]]:
    """(time, u, v) contact rows; u < v is not imposed, duplicates merge later."""
    days, meetings, (lo, hi), encounters = SHAPES[kind]
    rows: List[Tuple[int, str, str]] = []
    for day in range(days):
        base = T0 + day * DAY
        for name in pop.members:
            circles = pop.circles[name]
            classmates = pop.members[name]
            # the mix of group sizes and lengths is fixed; the seed picks
            # members and times, so the work varies little between seeds
            for m in range(meetings):
                size = GROUP_SIZES[(day * meetings + m) % len(GROUP_SIZES)]
                circle = rng.choice([c for c in circles if len(c) >= size])
                group = rng.sample(circle, size)
                length = lo + (m * 5 + day) % (hi - lo + 1)
                start = rng.randrange(1, DAY_STEPS - length)
                for step in range(start, start + length):
                    t = base + step * STEP
                    for i, u in enumerate(group):
                        for v in group[i + 1:]:
                            if rng.random() < 0.85:
                                rows.append((t, u, v))
        for _ in range(encounters):
            u = rng.choice(pop.nodes)
            pool = pop.members[pop.klass[u]] if rng.random() < 0.6 else pop.nodes
            v = rng.choice(pool)
            if v == u:
                continue
            start = rng.randrange(1, DAY_STEPS - 3)
            for step in range(start, start + rng.randint(1, 3)):
                rows.append((base + step * STEP, u, v))
    rows.sort()
    return rows


def generate(kind: str, seed: int, outdir: Path) -> Dict[str, Path]:
    """Write one input set; returns {"stream": path, "attributes": path}."""
    if kind not in SHAPES:
        raise ValueError(f"unknown input kind {kind!r}; use one of {KINDS}")
    rng = random.Random(f"{kind}:{seed}")
    if kind == "directed":
        # no gender items: every pattern is then far above or far below the
        # workload's support, so the pattern count does not depend on the seed
        pop = Population(rng, DIRECTED_CLASSES, genders=False)
    else:
        pop = Population(rng, HS_CLASSES)
    rows = _contacts(rng, pop, kind)
    lines: List[str] = []
    if kind == "contacts":
        seen = set()
        for t, u, v in rows:
            if (t, u, v) in seen or (t, v, u) in seen:
                continue
            seen.add((t, u, v))
            lines.append(f"{t}\t{u}\t{v}\t{pop.klass[u]}\t{pop.klass[v]}")
    elif kind == "directed":
        for t, u, v in rows:
            # who starts the exchange; some exchanges go both ways
            r = rng.random()
            if r < 0.3:
                lines.append(f"{t} {u} {v}")
                lines.append(f"{t} {v} {u}")
            else:
                lines.append(f"{t} {u} {v}" if r < 0.65 else f"{t} {v} {u}")
    else:
        lines = [f"{t} {u} {v}" for t, u, v in rows]

    outdir.mkdir(parents=True, exist_ok=True)
    stream = outdir / ("contacts.tsv" if kind == "contacts" else "stream.txt")
    attributes = outdir / "attributes.csv"
    stream.write_text("\n".join(lines) + "\n")
    attributes.write_text("\n".join(pop.attribute_lines()) + "\n")
    return {"stream": stream, "attributes": attributes}


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit("usage: gen.py KIND SEED OUTDIR")
    for name, path in generate(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])).items():
        print(name, path)
