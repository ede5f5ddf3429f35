"""Values the benchmark computes on its own, without calling toricsys.

Every expected value a check compares against comes from here: shoelace
sums, the paper's closed forms, and the geometry of the extremal convex
family and of rounded corners.  The random profile generators also live
here; they emit plain vertex lists, so the program only ever receives
generated inputs.
"""

from __future__ import annotations

import math
import random

Point = tuple[float, float]


def cross(u: Point, v: Point) -> float:
    return u[0] * v[1] - u[1] * v[0]


def shoelace(vertices) -> float:
    """Area between a polygonal profile path and the two axes."""
    return 0.5 * math.fsum(cross(p, q) for p, q in zip(vertices, vertices[1:]))


def vol_fc(b: float, c: float) -> float:
    """Volume of the extremal convex domain with parameters (b, c)."""
    return c * c / 2 + (b - c) ** 2 * c / (6 * b) + c * (1 - c) ** 2 / 6


def fc_flattened(b: float, c: float, n: int, radius: float) -> tuple[Point, float]:
    """First vertex at w1 <= 1 - radius on the fc piece next to the
    w1-intercept, and the area of the fc domain once the curve from (1, 0)
    to that vertex is replaced by its chord.  The piece is sampled at
    mu1 = 1 - (1 - c) i/n, i = 0..n, with w = (mu1^2, s (1 - mu1)^2) and
    s = c/(1-c); the curve integral of (w1 dw2 - w2 dw1) from mu1 = 1
    down to mu is 2 s (1/6 - mu^2/2 + mu^3/3)."""
    s = c / (1 - c)
    for i in range(1, n + 1):
        mu = 1 - (1 - c) * i / n
        v = (mu * mu, s * (1 - mu) ** 2)
        if v[0] <= 1 - radius:
            break
    else:
        raise ValueError("radius reaches past the curved piece")
    curve = s * (1 / 6 - mu * mu / 2 + mu**3 / 3)
    return v, vol_fc(b, c) - curve + 0.5 * v[1]


def rounded_corner_loss(vertices, r: float) -> float:
    """Area removed by rounding every convex interior corner of a
    polygonal path with radius r: r^2 (tan(phi/2) - phi/2) per corner of
    exterior angle phi."""
    loss = 0.0
    for p, q, s in zip(vertices, vertices[1:], vertices[2:]):
        d1 = (q[0] - p[0], q[1] - p[1])
        d2 = (s[0] - q[0], s[1] - q[1])
        phi = math.atan2(cross(d1, d2), d1[0] * d2[0] + d1[1] * d2[1])
        if phi > 0:
            loss += r * r * (math.tan(phi / 2) - phi / 2)
    return loss


def valid_star(vertices, margin: float) -> bool:
    """Star-shaped with room to spare: every segment's supporting line
    stays at least margin * diameter from the origin, and no vertex is
    closer than that to an axis (the intercepts excepted)."""
    diam = max(max(x, y) for x, y in vertices)
    for x, y in vertices[1:-1]:
        if min(x, y) < margin * diam:
            return False
    for p, q in zip(vertices, vertices[1:]):
        length = math.hypot(q[0] - p[0], q[1] - p[1])
        if length < margin * diam or cross(p, q) < margin * diam * length:
            return False
    return True


# ---------------------------------------------------------------------------
# Seeded random profiles, as vertex lists


def random_star(rng: random.Random, k: int) -> list[Point]:
    """Star-shaped, generally not monotone: increasing polar angles and
    arbitrary radii, k interior vertices."""
    while True:
        angles = sorted(rng.uniform(0.08, math.pi / 2 - 0.08) for _ in range(k))
        if any(b - a < 0.03 for a, b in zip(angles, angles[1:])):
            continue
        pts = [(rng.uniform(0.5, 2.0), 0.0)]
        for ang in angles:
            r = rng.uniform(0.4, 2.0)
            pts.append((r * math.cos(ang), r * math.sin(ang)))
        pts.append((0.0, rng.uniform(0.5, 2.0)))
        if valid_star(pts, 0.02):
            return pts


def random_monotone(rng: random.Random, k: int) -> list[Point]:
    """Strictly monotone: w1 strictly decreasing and w2 strictly
    increasing along the path, k interior vertices."""
    while True:
        a = rng.uniform(0.5, 2.0)
        b = rng.uniform(0.5, 2.0)
        xs = sorted((rng.uniform(0.04, 0.96) * a for _ in range(k)), reverse=True)
        ys = sorted(rng.uniform(0.04, 0.96) * b for _ in range(k))
        pts = [(a, 0.0)] + list(zip(xs, ys)) + [(0.0, b)]
        steps_ok = all(
            p[0] - q[0] > 0.005 * a and q[1] - p[1] > 0.005 * b
            for p, q in zip(pts, pts[1:])
        )
        if steps_ok and valid_star(pts, 0.005):
            return pts


def random_convex_monotone(rng: random.Random, k: int) -> list[Point]:
    """Monotone and convex in the 4D sense: a concave decreasing chain in
    square-root coordinates with strictly decreasing slopes, squared; k
    interior vertices."""
    while True:
        mu_a = rng.uniform(0.7, 1.5)
        mu_b = rng.uniform(0.7, 1.5)
        slopes = sorted((-rng.uniform(0.1, 4.0) for _ in range(k + 1)), reverse=True)
        if any(s - t < 0.02 for s, t in zip(slopes, slopes[1:])):
            continue
        widths = [rng.uniform(0.2, 1.0) for _ in range(k + 1)]
        wsum = sum(widths)
        xs, ys = [0.0], [0.0]
        for w, s in zip(widths, slopes):
            xs.append(xs[-1] + w * mu_a / wsum)
            ys.append(ys[-1] + w * mu_a / wsum * s)
        drop = -ys[-1]
        mu = [(x, mu_b * (1 + y / drop)) for x, y in zip(xs, ys)]
        mu[-1] = (mu_a, 0.0)
        pts = [(x * x, y * y) for x, y in reversed(mu)]
        if valid_star(pts, 0.005):
            return pts


def ellipse_polygon(rng: random.Random, a: float, b: float, k: int) -> list[Point]:
    """Convex polygon inscribed in the quarter ellipse from (a, 0) to
    (0, b), with k interior vertices at jittered parameter angles."""
    ts = [(j + rng.uniform(0.3, 0.7)) / k * math.pi / 2 for j in range(k)]
    return [(a, 0.0)] + [(a * math.cos(t), b * math.sin(t)) for t in ts] + [(0.0, b)]
