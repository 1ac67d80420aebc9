import re
from pathlib import Path

import numpy as np

import asuq

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_example_runs():
    text = README.read_text()
    api = text[text.index("## Python API"):]
    code = re.search(r"```python\n(.*?)```", api, re.S).group(1)
    namespace = {"my_evaluator": asuq.synthetic_ridge(
        asuq.ridge_direction(7, 3), "cubic-monotone")}
    exec(compile(code, str(README), "exec"), namespace)

    campaign, rng, f = namespace["campaign"], namespace["rng"], namespace["f"]
    assert len(campaign.done_runs()) == 52
    assert [r.role for r in campaign.runs[50:]] == ["corner", "corner"]
    assert rng.corner_errors is None
    assert rng.f_min < rng.f_max and rng.validated
    assert np.all((rng.f_min <= f) & (f <= rng.f_max))
    assert namespace["safe"].feasible in ("empty", "partial", "full")
    assert len(namespace["cdf"].grid) == 513
