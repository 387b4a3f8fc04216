#!/usr/bin/env python3
# Composing derivative towers: the tower of f . g is assembled from the
# towers of f and g alone, by substituting g's truncated Taylor polynomial
# into f's (the higher-order chain rule).  Folding that substitution over a
# pipeline from the front or the back gives forward- and reverse-style
# accumulation with identical results.

import numpy as np

from tensorjet import (
    Affine,
    Compose,
    Elementwise,
    compose_towers,
    derivative_tower,
    forward_chain,
    get_primitive,
    reverse_chain,
)

# scalar example where the hand formula is easy: sin(x^2)
f = Elementwise(get_primitive("sin"))
g = Compose(Elementwise(get_primitive("pow2")), Affine([[1.0]], [0.0]))
x = 0.8
inner = derivative_tower(g, [x], 2)
outer = derivative_tower(f, inner.value, 2)
combined = compose_towers(outer, inner)
hand = np.cos(x * x) * 2 - np.sin(x * x) * (2 * x) ** 2
print(f"second derivative of sin(x^2) at {x}:")
print("  from towers:", combined.component(2)[0, 0, 0])
print("  hand formula f'(g) g'' + f''(g) (g')^2:", hand)

# a four-stage pipeline, accumulated from both ends
stages = [
    Affine([[0.5], [0.2]], [0.1, -0.3]),
    Elementwise(get_primitive("tanh"), dim=2),
    Affine([[0.3, -0.7]], [0.2]),
    Elementwise(get_primitive("sin")),
]
v = np.array([0.4])
fwd = forward_chain(stages, v, 2)
rev = reverse_chain(stages, v, 2)
gap = max(
    float(np.max(np.abs(a - b)))
    for a, b in zip(fwd.tower.components, rev.tower.components)
)
print("\nfour-stage chain, first-to-last vs last-to-first accumulation:")
print("  value:", fwd.value, " gradient:", fwd.component(1).ravel())
print("  max discrepancy between the two sweeps:", gap)
