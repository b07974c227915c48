"""A fixed piece of pure-Python work that measures how fast the machine runs
right now, so that run.py can scale command times by it.

It uses none of the program's code, so no change to the program moves it.
Its mix follows the program's hot paths: exact Fraction cross products on
small integer points, tuple and dict traffic, and a sort. It prints one
checksum, which run.py compares with REFERENCE_CHECKSUM.

    python3 perfbench/reference.py
"""

from fractions import Fraction

ROUNDS = 9000


def cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def main() -> str:
    points = [(Fraction(i * 7 % 31), Fraction(i * 13 % 37, 3)) for i in range(64)]
    signs = {}
    total = 0
    for r in range(ROUNDS):
        o, a, b = points[r % 64], points[(r * 5 + 1) % 64], points[(r * 11 + 2) % 64]
        c = cross(o, a, b)
        key = (c > 0) - (c < 0)
        signs[key] = signs.get(key, 0) + 1
        if r % 400 == 0:
            total += sum(p[0] for p in sorted(points, key=lambda p: (p[1], p[0]))[:8])
    return f"{sorted(signs.items())} {total}"


if __name__ == "__main__":
    print(main())
