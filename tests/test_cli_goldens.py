"""CLI runs whose stdout must match ``tests/golden`` byte for byte, under two hash seeds.

Identical runs print identical bytes across processes: the index tables
behind packed towers and jets must not depend on ``PYTHONHASHSEED``.  Each
seed runs every command below in one child process, through ``cli.main``,
and each golden is compared with the concatenated stdout of its commands.

- ``chain_tau_taylor``: the tower and taylor runs of a 60-stage run of
  elementwise stages, whose truth is the run's value pass.
- ``lone_elem_tau_taylor``: towers and taylor runs of programs whose
  elementwise nodes are lone, not links of a run; they take the same pass.
- ``compose_modes`` and ``compose_modes_layer``: the reverse fold keeps the
  bits of stage-by-stage ``compose_towers``, and takes each stage's point
  from the tower before it, so a layer's tower value has its value rule's
  bits.  Both also print the same value components forward and reverse.
- ``compose_boundary_tau``: a layer over sin∘affine and an extracted
  derivative; the walk hands their packed towers to ``compose_towers`` and
  ``order_reduce`` without a dense round trip.
- ``iterate_orders``: Schroeder series at orders 12 and 24 on a sin sum map
  and a quadratic layer map.
- ``kernel_towers_tau``: the order-4 towers of ``d3`` and of a two-layer
  tanh network pass the product and layer boundaries, whose gathers,
  contractions and orbit sums must keep their bits.
- ``reduce_sum_velocity``: value and velocity at n = 10^6 are exact
  rationals rounded once.

The runs with no golden (``out``) must print the same bytes under both seeds.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def _chain(stages):
    """``stages`` elementwise stages, tanh and sin in turn, over one affine."""
    text = "(affine [[0.6,-0.3],[0.2,0.5]] [0.1,-0.2])"
    for i in range(1, stages + 1):
        text = f"(compose (elem {'sin' if i % 2 == 0 else 'tanh'}) {text})"
    return text


QUADRATIC = ('(layer {"dim_out":2,"dim_in":2,"order":2,"components":[[0.1,-0.2],'
             '[[0.5,0.3],[-0.2,0.4]],[[[-0.9,1.0],[0.3,-0.5]],[[-0.1,0.9],[0.8,0.7]]]]})')
AFFINE3 = "(affine [[0.5,0.2,-0.1],[0.1,-0.3,0.4],[0.2,0.1,0.3]] [0.1,0.0,-0.2])"
NET3 = (
    '(compose (layer {"dim_out":3,"dim_in":3,"order":2,"components":[[-0.17,-0.09,0.07],'
    '[[0.01,0.08,0.08],[0.45,-0.5,0.29],[0.38,0.25,-0.11]],[[[0.35,-0.38,0.24],'
    '[0.08,-0.37,-0.13],[-0.1,-0.26,0.11]],[[-0.05,0.17,-0.1],[-0.36,0.17,0.19],'
    '[-0.33,-0.03,-0.04]],[[0.33,0.08,-0.15],[0.3,-0.14,0.18],[-0.25,-0.23,-0.28]]]]}) '
    '(compose (elem tanh) (layer {"dim_out":3,"dim_in":3,"order":2,"components":'
    '[[0.32,-0.31,-0.24],[[-0.36,0.36,0.0],[-0.35,0.49,0.38],[-0.23,-0.2,-0.48]],'
    '[[[-0.32,0.17,0.26],[0.15,-0.2,0.28],[-0.21,-0.2,0.13]],[[-0.2,0.23,-0.14],'
    '[0.28,0.28,0.07],[0.3,0.11,-0.13]],[[-0.17,0.22,-0.29],[0.18,0.04,-0.37],'
    '[-0.23,-0.0,-0.21]]]]})))'
)
PROGRAMS = {
    "d3": f"(compose (elem tanh) (sum {AFFINE3} (prod (compose (elem sin) id) id)))",
    "s1": "(compose (elem sin) (affine [[0.7,-0.2],[0.3,0.5]] [0.1,-0.1]))",
    "s2": "(compose (elem tanh) (affine [[0.4,0.1],[-0.2,0.6]] [0.0,0.2]))",
    "q": QUADRATIC,
    "rs": ("(sum (compose (elem sin) (affine [[0.4,0.1],[-0.2,0.6]] [0.0,0.2])) "
           "(prod id (compose (elem exp) id)))"),
    "cb1": f"(compose {QUADRATIC} (compose (elem sin) (affine [[0.7,-0.2],[0.3,0.5]] [0.1,-0.1])))",
    "cb2": "(deriv (compose (elem tanh) (affine [[0.4,0.1],[-0.2,0.6]] [0.0,0.2])) 2)",
    "chain": _chain(60),
    "lone1": f"(sum (elem tanh) {AFFINE3})",
    "lone2": "(prod (elem sin) (elem cos) (affine [[0.6,-0.3],[0.2,0.5]] [0.1,-0.2]))",
    "it1": "(sum (affine [[0.2]] [0.05]) (elem sin))",
    "it2": '(layer {"dim_out":1,"dim_in":1,"order":2,"components":[[0.0],[[0.5]],[[[0.25]]]]})',
    "net3": NET3,
}

X3, X2 = "[0.2,-0.1,0.3]", "[0.3,-0.2]"
# (output, argv): each output is the stdout of its commands, in this order
RUNS = [
    ("out", ["tau", "--program", "d3", "--at", X3, "--order", "5"]),
    ("chain", ["tau", "--program", "chain", "--at", X2, "--order", "6"]),
    ("chain", ["taylor", "--program", "chain", "--at", X2, "--dir", "[1,0.5]",
               "--h", "0.01", "--order", "6"]),
    ("lone", ["tau", "--program", "lone1", "--at", X3, "--order", "5"]),
    ("lone", ["taylor", "--program", "lone1", "--at", X3, "--dir", "[1,0.5,-0.25]",
              "--h", "0.01", "--order", "5"]),
    ("lone", ["tau", "--program", "lone2", "--at", X2, "--order", "5"]),
    ("lone", ["taylor", "--program", "lone2", "--at", X2, "--dir", "[1,0.5]",
              "--h", "0.01", "--order", "5"]),
    ("modes", ["compose-modes", "--chain", "s1", "s2", "--at", "[0.3,0.1]",
               "--order", "3", "--mode", "both"]),
    ("layer", ["compose-modes", "--chain", "s1", "q", "s2", "--at", "[0.3,0.1]",
               "--order", "3", "--mode", "both"]),
    ("boundary", ["tau", "--program", "cb1", "--at", "[0.3,0.1]", "--order", "4"]),
    ("boundary", ["tau", "--program", "cb2", "--at", "[0.3,0.1]", "--order", "3"]),
    *[("iterate", argv) for order in ("12", "24") for argv in (
        ["iterate", "--program", "it1", "--seed", "0", "--x", "0.5", "--at", "-0.2",
         "--order", order],
        ["iterate", "--program", "it2", "--seed", "0.3", "--x", "0.5", "--at", "0.1",
         "--order", order])],
    ("kernel", ["tau", "--program", "d3", "--at", X3, "--order", "4"]),
    ("kernel", ["tau", "--program", "net3", "--at", X3, "--order", "4"]),
    ("out", ["compose-modes", "--chain", "s1", "s2", "--at", "[0.3,0.1]",
             "--order", "3", "--mode", "both"]),
    ("out", ["reduce-sum", "--program", "rs", "--at", "[0.1,-0.2]", "--dir", "[0.3,0.2]",
             "--order", "24", "--n", "5", "--velocity", "1"]),
    ("big", ["reduce-sum", "--program", "rs", "--at", "[0.1,-0.2]", "--dir", "[0.3,0.2]",
             "--order", "24", "--n", "1000000", "--velocity", "3"]),
]
GOLDENS = {
    "chain": "chain_tau_taylor.txt",
    "lone": "lone_elem_tau_taylor.txt",
    "modes": "compose_modes.txt",
    "layer": "compose_modes_layer.txt",
    "boundary": "compose_boundary_tau.txt",
    "iterate": "iterate_orders.txt",
    "kernel": "kernel_towers_tau.txt",
    "big": "reduce_sum_velocity.txt",
}

# Runs each (output, argv) of the JSON list in argv[1] through cli.main and
# prints {output: stdout} as JSON; a run that exits nonzero fails the child.
CHILD = """
import contextlib, io, json, sys
from tensorjet.cli import main
outputs = {}
for name, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    if code:
        sys.exit(f"{argv}: exit {code}")
    outputs[name] = outputs.get(name, "") + out.getvalue()
print(json.dumps(outputs))
"""


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """{seed: {output: stdout}} for PYTHONHASHSEED 0 and 1."""
    tmp = tmp_path_factory.mktemp("goldens")
    paths = {}
    for name, text in PROGRAMS.items():
        paths[name] = tmp / f"{name}.sexp"
        paths[name].write_text(text + "\n")
    runs = [(out, [str(paths.get(arg, arg)) for arg in argv]) for out, argv in RUNS]
    result = {}
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(runs)], env=env,
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        result[seed] = json.loads(proc.stdout)
    return result


@pytest.mark.parametrize("seed", ["0", "1"])
@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_stdout_is_the_golden(outputs, name, seed):
    assert outputs[seed][name].encode() == (GOLDEN / GOLDENS[name]).read_bytes()


@pytest.mark.parametrize("seed", ["0", "1"])
@pytest.mark.parametrize("name", ["modes", "layer"])
def test_compose_modes_values_agree_forward_and_reverse(outputs, name, seed):
    tower = json.loads(outputs[seed][name])
    assert str(tower["forward"]["components"][0]) == str(tower["reverse"]["components"][0])


def test_runs_without_a_golden_print_the_same_bytes_under_both_seeds(outputs):
    assert outputs["0"]["out"].encode() == outputs["1"]["out"].encode()
