"""Seeded workloads for the benchmark.

Each workload is a fixed list of shapes; the seed only draws the entries,
so every seed costs about the same and run-to-run spread measures the
machine, not the draw. The program is handed only the generated text (CSV
or a JSON document); the row values are kept for the reference checks.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from random import Random


@dataclass(frozen=True)
class Item:
    """One operation's input: the text `cullis compute` would read."""

    label: str
    tag: str
    rows: tuple
    text: str
    scalar: str | None
    verify: bool
    known_fault: str | None = None


def _draw(rng: Random, tag: str, digits: int):
    if tag == "int":
        if digits <= 1:
            return rng.randint(-9, 9)
        v = rng.randint(10 ** (digits - 1), 10**digits - 1)
        return v if rng.random() < 0.5 else -v
    if tag == "rational":
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return rng.uniform(-1.0, 1.0)


def _cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _csv(rows) -> str:
    return "".join(",".join(_cell(v) for v in row) + "\n" for row in rows)


def _json(rows, tag: str) -> str:
    # ints and floats go in as JSON numbers, rationals as literal strings
    data = [[str(v) if isinstance(v, Fraction) else v for v in row] for row in rows]
    return json.dumps({"rows": len(rows), "cols": len(rows[0]), "domain": tag, "data": data})


def make_item(rng: Random, tag: str, n: int, k: int, *, digits: int = 1,
              fmt: str = "csv", verify: bool = False, known_fault=None) -> Item:
    rows = tuple(tuple(_draw(rng, tag, digits) for _ in range(k)) for _ in range(n))
    if fmt == "json":
        text, scalar = _json(rows, tag), None
    else:
        text, scalar = _csv(rows), (None if tag == "int" else tag)
    digit_note = f" {digits}d" if digits > 1 else ""
    label = f"{tag} {n}x{k}{digit_note} {fmt}{' verify' if verify else ''}"
    return Item(label, tag, rows, text, scalar, verify, known_fault)


# tall: n >> k, all three padding cases (even k; odd k, even n; odd k, odd n)
# in every domain. The dense K*A and A^T*(KA) products dominate here. The
# three smallest shapes run the --verify oracle, as `compute --verify` would.
# A round takes about 2.5 s, so a 30 s run repeats each operation about ten
# times; float 300x150 alone would take 2 s and leave five.
TALL = (
    ("int", 256, 32), ("int", 64, 31), ("int", 129, 33),
    ("rational", 64, 32), ("rational", 48, 31), ("rational", 65, 21),
    ("float", 200, 100), ("float", 128, 63), ("float", 151, 75),
    ("int", 9, 4, "verify"), ("rational", 8, 5, "verify"), ("float", 7, 3, "verify"),
)

# square-bigint: (n, k, decimal digits per entry). The fraction-free
# Pfaffian on growing bit lengths dominates. 45x45 takes the odd/odd padding.
SQUARE_BIGINT = (
    (64, 64, 60), (100, 100, 10), (49, 48, 40), (45, 45, 30), (5, 4, 60, "verify"),
)
# Its value has about 4800 decimal digits, past Python's default int-to-str
# limit of 4300, so `IntegerDomain.format` raises after all the work is done.
# The entries come from a fixed seed so the failure is the same in every run.
# 81x80 with 60-digit entries fails the same way but costs 4 s a round.
SQUARE_BIGINT_OVER_LIMIT = (32, 32, 150)

SMALL_MANY_COUNT = 2000


def tall(seed: int) -> list:
    rng = Random(f"tall-{seed}")
    return [make_item(rng, tag, n, k, verify=bool(rest)) for tag, n, k, *rest in TALL]


def square_bigint(seed: int) -> list:
    rng = Random(f"square-bigint-{seed}")
    items = [make_item(rng, "int", n, k, digits=d, verify=bool(rest))
             for n, k, d, *rest in SQUARE_BIGINT]
    n, k, d = SQUARE_BIGINT_OVER_LIMIT
    items.append(make_item(Random("square-bigint-over-limit"), "int", n, k, digits=d,
                           known_fault="format"))
    return items


def small_many(seed: int) -> list:
    """Shapes 1x1 to 12x12 in all domains and both formats. Every tenth
    operation also runs the oracle, on shapes up to 8x8 where it takes
    milliseconds. The layout comes from a fixed seed, the entries from
    `seed`."""
    layout = Random("small-many-layout")
    rng = Random(f"small-many-{seed}")
    items = []
    for i in range(SMALL_MANY_COUNT):
        verify = i % 10 == 0
        top = 8 if verify else 12
        tag = layout.choice(("int", "rational", "float"))
        n, k = layout.randint(1, top), layout.randint(1, top)
        fmt = layout.choice(("csv", "json"))
        items.append(make_item(rng, tag, n, k, fmt=fmt, verify=verify))
    return items


WORKLOADS = {"tall": tall, "square-bigint": square_bigint, "small-many": small_many}
