"""The package attributes that the benchmark's tracer patches must exist,
and must come back unchanged: a rename that the tracer does not know of
would otherwise pass the suite and break only the traced benchmark run."""

import contextlib
import importlib.util
import io
from pathlib import Path

from gumbeltail import cli, engine, estimators, models, normal, select
from gumbeltail.cli import dispatch

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
MODULES = (cli, engine, estimators, models, normal, select)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_run(argvs):
    """The exit codes of the commands run under the installed tracer, the
    tracer, and what uninstall put back."""
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    saved = tracing.install(tracer)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes = [dispatch(argv) for argv in argvs]
    finally:
        tracing.uninstall(saved)
    return codes, tracer, saved


def test_traced_seams_exist_and_are_restored():
    before = {module: dict(vars(module)) for module in MODULES}
    codes, tracer, saved = _traced_run([
        ["table", "--n-total", "200"],
        ["norming", "--model", "log-normal", "--n", "10000", "--format", "json"],
    ])
    assert codes == [0, 0]
    # every patched attribute but the shadowed builtin open was there to patch
    added = [f"{module.__name__}.{attr}" for module, attr, _ in saved
             if attr not in before[module]]
    assert added == ["gumbeltail.cli.open"]
    assert all(vars(module).get(attr) is before[module].get(attr) for module, attr, _ in saved)
    spans = tracer.snapshot({None})["spans"]
    assert spans["engine.reproduce_table"]["calls"] == 1
    assert spans["models.norming"]["calls"] >= 1
    assert spans["models.lambda_ratio"]["calls"] == 4
    # the model seams: a TailModel whose quantile or sf the traced subclass
    # no longer wraps would count fewer calls here; one normal_ppf call is
    # normal's lower endpoint, read once from its quantile and cached
    assert {name: spans[name]["calls"] for name in (
        "models.quantile", "models.sf", "normal.normal_ppf", "normal.normal_sf",
        "models.mean_excess_R",
    )} == {
        "models.quantile": 12, "models.sf": 767, "normal.normal_ppf": 12,
        "normal.normal_sf": 767, "models.mean_excess_R": 10,
    }


def test_tracer_counts_every_seed_and_draw():
    # one table stream, three simulate streams and two ks streams, whose
    # n = 70000 > 2**16 runs the chunked draw: a seeding that bypasses
    # RngSpec.generator, or a draw that bypasses Generator.integers, goes
    # uncounted
    codes, tracer, _ = _traced_run([
        ["table", "--n-total", "200"],
        ["simulate", "--model", "exp-of-log", "--n", "1000", "--reps", "3"],
        ["ks", "--model", "normal", "--n", "70000", "--reps", "2", "--log-scale"],
    ])
    assert codes == [0, 0, 0]
    snapshot = tracer.snapshot({None})
    assert snapshot["spans"]["engine.seed"]["calls"] == 6
    assert snapshot["counts"]["engine.uniforms_drawn"] == 200 + 3 * 1000 + 2 * 70000 == 143200


def test_tracer_counts_row_blocks_that_straddle_a_seed_block():
    # n = 1000 fills buffers of 65 rows, and 1100 replicates take seed
    # blocks of 1024 and 76 streams, so the buffer read at replicate 1039
    # holds rows of both; every replicate still seeds and draws once
    codes, tracer, _ = _traced_run([
        ["simulate", "--model", "exp-of-log", "--n", "1000", "--reps", "1100"],
    ])
    assert codes == [0]
    snapshot = tracer.snapshot({None})
    assert snapshot["spans"]["engine.seed"]["calls"] == 1100
    assert snapshot["counts"]["engine.uniforms_drawn"] == 1100 * 1000
