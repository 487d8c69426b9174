"""Memory footprint guards that no result test would notice.

CPython 3.11's parser takes about 0.5 MB more peak memory to compile a
module of 8,192 or more tokens, which every process pays when it compiles
egdeg from source, and ``numpy.ma`` costs about 0.6 MB once imported; a
plain ``np.unique`` imports it.  Importing egdeg should compile no record
methods either, which the standard library's dataclasses would do per class.
"""
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PARSER_TOKEN_LIMIT = 8192


def parser_tokens(path: Path) -> int:
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
    with open(path, "rb") as fh:
        return sum(1 for tok in tokenize.tokenize(fh.readline) if tok.type not in skip)


@pytest.mark.parametrize("path", sorted((SRC / "egdeg").glob("*.py")),
                         ids=lambda p: p.name)
def test_module_below_parser_token_limit(path):
    assert parser_tokens(path) < PARSER_TOKEN_LIMIT


RUN = """
import sys
import numpy as np
from egdeg import degree as dg
from egdeg.factory import catalog
from egdeg.params import Numerics
from egdeg.perturb import perturb, select_tube, verify_partition
from egdeg.theta import theta
from egdeg.verify import _random_confined

poly = _random_confined(np.random.default_rng(424205), 3)
fld = dg.FieldAdapter(lambda u: poly.grad(u), 3)
region = dg.BoxRegion([-2.0] * 3, [2.0] * 3, 0.25)
num = Numerics(grid_h=0.25, bbox=2.0)
records = dg.find_zeros(fld, region, num)
dg.intersection_number(fld, region, num, records=records)
dg.kronecker_degree(fld, region.lo, region.hi)
group, omega, f = catalog("d3_axis_orbit_normal").build()
assert f.seed_hints
theta(group, omega, f, Numerics(grid_h=0.1, bbox=2.0))
_, _, line = catalog("z2_line_max").build()
tube = select_tube(line, 0, np.empty((0, 1)), Numerics(grid_h=0.1, bbox=2.0))
assert verify_partition(perturb(line, tube)[1], 50)["violations"] == 0
print("numpy.ma" in sys.modules)
"""


def run_fresh(code: str) -> str:
    paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC)] + paths))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return out.stdout.strip()


def test_box_degree_and_theta_leave_numpy_ma_unimported():
    assert run_fresh(RUN) == "False"


def test_import_leaves_dataclasses_unimported():
    assert run_fresh("import sys\nimport egdeg, egdeg.cli, egdeg.factory, egdeg.config\n"
                     "print('dataclasses' in sys.modules)") == "False"
