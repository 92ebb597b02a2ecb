"""Tour of pair boxes, projection sites, and the separation classifier.

A configuration of two particles on Z^d lives at a pair point (x1, x2).  A
box is the product of two cubes of the same radius; its projection sites are
the sorted union of the two cubes, and how the four cubes of two boxes
overlap decides which conditional bound applies.
"""

from wegner2p import (
    PairPoint,
    classify_separation,
    make_box,
    projection_sites,
    survey_separation_line,
)
from wegner2p.experiments import choose_bound

u = PairPoint.of((0,), (3,))
box = make_box(u, radius=2)
sites = projection_sites(box)

print("box centred at", u, "radius 2")
print("  matrix dimension", box.size)
print("  projection sites", sites)
print("  the union of the two cubes covers", len(sites), "lattice sites")
print("  swap image", PairPoint(u.second, u.first))
print()

# Three geometries at radius 1: far apart, partially tangled, too close.
cases = [
    (PairPoint.of((0,), (0,)), PairPoint.of((100,), (100,))),
    (PairPoint.of((0,), (0,)), PairPoint.of((9,), (20,))),
    (PairPoint.of((0,), (0,)), PairPoint.of((5,), (0,))),
]
for u, u_prime in cases:
    try:
        classes = classify_separation(u, u_prime, 1)
    except ValueError as refusal:
        print(u, "vs", u_prime, ":", refusal, "- no claim made")
        continue
    names = sorted(c.value for c in classes)
    print(u, "vs", u_prime, "->", names)
    print("   bound choice:", choose_bound(classes).value)
print()

# Exhaustively scan every admissible line geometry at radius 1 and count
# how often each class shows up.  Nothing is ever left unclassified.
survey = survey_separation_line(1)
print(f"line survey at radius 1: {survey.geometries} geometries, {survey.empty} empty")
for cls, count in sorted(survey.class_counts.items(), key=lambda kv: kv[0].value):
    print(f"  {cls.value:28s} {count}")
