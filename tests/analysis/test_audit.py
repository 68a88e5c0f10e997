"""The overlap audit: tier cross-examination of logged queries."""

from repro.analysis.audit import audit_compilation, audit_pool
from repro.bench.programs import all_benchmarks
from repro.lmad.lmad import Lmad, LmadDim
from repro.lmad.overlap import ProverPool, QueryRecord
from repro.symbolic import Context, sym


def L(off, *dims):
    return Lmad(sym(off), tuple(LmadDim(sym(s), sym(st)) for s, st in dims))


def test_audit_replays_real_compilation_cleanly():
    res = audit_compilation(all_benchmarks()["lud"].build(), "lud", "full")
    assert res.ok(), res.render()
    assert res.queries > 0
    assert res.polyhedral > 0, res.render()
    assert "[ok]" in res.render()


def test_audit_flags_result_flips():
    """A log entry whose recorded result the replay cannot reproduce."""
    pool = ProverPool()
    pool.set_client("sc")
    ctx = Context()
    a, b = L(0, (4, 1)), L(2, (4, 1))  # genuinely overlapping
    pool.checker_for(ctx).check(a, b)
    # Corrupt the record as a sabotaged/regressed prover would have.
    rec = pool.query_log[0]
    pool.query_log[0] = QueryRecord(
        rec.client, rec.ctx, rec.l1, rec.l2, rec.structural, rec.tier, True
    )
    res = audit_pool(pool, "synthetic", "full")
    assert not res.ok()
    assert "replay gives" in res.render()


def test_audit_counts_log_drops(monkeypatch):
    monkeypatch.setattr(ProverPool, "LOG_CAP", 1)
    pool = ProverPool()
    ctx = Context()
    chk = pool.checker_for(ctx)
    chk.check(L(0, (2, 1)), L(5, (2, 1)))
    chk.check(L(10, (2, 1)), L(15, (2, 1)))
    res = audit_pool(pool, "synthetic", "full")
    assert res.queries == 1 and res.dropped == 1
    assert "1 dropped" in res.render()


def test_cli_overlap_audit(capsys):
    from repro.analysis.__main__ import main

    assert main(["nw", "--overlap-audit", "--pipeline", "sc"]) == 0
    out = capsys.readouterr().out
    assert "nw/sc" in out and "[ok]" in out


def test_audit_catches_a_structural_claim_on_symbolic_shared_points(monkeypatch):
    """The "structural = disjoint but polyhedral = NONEMPTY" cross-check
    under *lifted parameters*: elimination downgrades a witness found at
    one parameter value to UNKNOWN, so before the shared-point refutation
    this check could never fire on a symbolic pair.  Simulate a broken
    structural tier that calls two blocks with the same first point
    disjoint; the audit must object."""
    from repro.lmad.overlap import NonOverlapChecker
    from repro.symbolic import SymExpr

    b, k, n, q, z = (SymExpr.var(v) for v in "bknqz")
    ctx = Context()  # the facts of lud's width-1 map body
    ctx.define("n", b * q)
    ctx.assume_lower("b", 2)
    ctx.assume_lower("q", 2)
    ctx.assume_range("k", 0, q - 1)
    ctx.assume_range("z", 0, 0)
    dims = (LmadDim(b, n), LmadDim(b, sym(1)))
    blk = Lmad(b * k * n + b * k + z, dims)
    row = Lmad(b * k * n + b * k, dims)

    pool = ProverPool()
    pool.set_client("sc")
    assert not pool.checker_for(ctx).check(blk, row)
    assert pool.refuted_by_shared_point == 1
    assert audit_pool(pool, "synthetic", "full").ok()

    monkeypatch.setattr(NonOverlapChecker, "check", lambda self, a, b: True)
    res = audit_pool(pool, "synthetic", "full")
    assert not res.ok()
    assert "structural=disjoint but polyhedral=NONEMPTY" in res.render()
