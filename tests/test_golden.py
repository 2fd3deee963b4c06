"""Pinned traces: the SHA-256 of every trace array and residual series of `run`.

Five algorithms on the 39-agent cases, seeds 1-3, at the shipped configs'
parameters (directed and virtual at the robust config's). A change that moves
any bit of a trace fails here, naming the series, the algorithm and the seed.
When a change is meant to move traces, say why in CHANGES.md and rewrite the
pins with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json
from pathlib import Path

import pytest

import dercoord as dc

REPO = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden.json")
CONFIGS = {"pd1": "pd1", "pd2": "pd2", "directed": "robust", "robust": "robust", "virtual": "robust"}
SEEDS = (1, 2, 3)


def trace_digests(algorithm: str, seed: int) -> dict[str, str]:
    """Series name -> SHA-256 of its float64 bytes, for one run at the config's parameters."""
    config = dc.load_config(REPO / "configs" / f"benchmark39_{CONFIGS[algorithm]}.cfg")
    params = config.params
    schedule = dc.GraphSchedule(config.graph, config.q, seed, params.horizon)
    trace = dc.run(algorithm, config.instance, schedule, params)
    arrays = {name: getattr(trace, name) for name in ("p", "consensus", "y", "v")}
    arrays.update((f"residuals.{key}", value) for key, value in trace.residuals.items())
    return {name: hashlib.sha256(a.tobytes()).hexdigest() for name, a in arrays.items() if a is not None}


@pytest.mark.parametrize("algorithm", dc.ALGORITHMS)
def test_traces_match_their_pins(algorithm):
    pins = json.loads(GOLDEN.read_text())[algorithm]
    for seed in SEEDS:
        got, want = trace_digests(algorithm, seed), pins[str(seed)]
        assert sorted(got) == sorted(want), f"{algorithm}, seed {seed}: series {sorted(got)} != {sorted(want)}"
        moved = [name for name in want if got[name] != want[name]]
        assert not moved, f"{algorithm}, seed {seed}: series {', '.join(moved)} moved from their pins"


if __name__ == "__main__":
    pins = {a: {str(seed): trace_digests(a, seed) for seed in SEEDS} for a in dc.ALGORITHMS}
    GOLDEN.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
