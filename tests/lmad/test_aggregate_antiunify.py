"""Tests for loop aggregation (section II-B) and anti-unification (IV-C)."""


from repro.lmad import (
    IndexFn,
    Lmad,
    aggregate_over_loop,
    antiunify_ixfns,
    lmad,
)
from repro.symbolic import Context, Prover, Var, sym
from tests.lmad import col_major, enumerate_offsets

t, m, n, k, i, j = (Var(v) for v in ["t", "m", "n", "k", "i", "j"])


class TestAggregation:
    def test_paper_ii_b_inner_loop(self):
        """W_i = t + i*m + {(n : k)} aggregated over j is the example's W_i;
        here we aggregate the point access t + i*m + j*k over j."""
        p = Prover(Context().assume_lower("n", 1))
        point = Lmad(t + i * m + j * k, ())
        wi = aggregate_over_loop(point, "j", n, p)
        assert wi is not None
        assert wi == lmad(t + i * m, [(n, k)])

    def test_paper_ii_b_outer_loop(self):
        """W = union_i W_i = t + {(m:m), (n:k)} (paper section II-B)."""
        p = Prover(Context().assume_lower("n", 1).assume_lower("m", 1))
        wi = lmad(t + i * m, [(n, k)])
        w = aggregate_over_loop(wi, "i", m, p)
        assert w is not None
        assert w == lmad(t, [(m, m), (n, k)])

    def test_concrete_union_matches_enumeration(self):
        p = Prover()
        env = {"t": 1, "m": 8, "n": 3, "k": 2}
        wi = lmad(t + i * m, [(n, k)])
        w = aggregate_over_loop(wi, "i", m, p)
        expected = set()
        for iv in range(env["m"]):
            expected |= set(
                enumerate_offsets(wi.substitute({"i": iv}), env)
            )
        assert set(enumerate_offsets(w, env)) == expected

    def test_loop_invariant_access(self):
        p = Prover()
        acc = lmad(t, [(n, 1)])
        w = aggregate_over_loop(acc, "i", m, p)
        assert w == acc  # does not move with the loop

    def test_nonaffine_offset_fails(self):
        p = Prover()
        acc = Lmad(i * i, ())  # quadratic in the loop index
        assert aggregate_over_loop(acc, "i", m, p) is None

    def test_index_in_stride_fails(self):
        p = Prover()
        acc = lmad(0, [(n, i)])
        assert aggregate_over_loop(acc, "i", m, p) is None

    def test_index_in_cardinality_overestimates(self):
        """Footnote 8: substitute the bound that maximizes the cardinal."""
        p = Prover(Context().assume_lower("m", 1))
        acc = lmad(i * 10, [(i + 1, 1)])  # triangular: grows with i
        w = aggregate_over_loop(acc, "i", m, p)
        assert w is not None
        # cardinality overestimated at i = m-1:
        assert w.dims[1].shape == m
        # superset check, concretely:
        env = {"m": 4}
        union = set()
        for iv in range(4):
            union |= set(enumerate_offsets(acc.substitute({"i": iv}), env))
        assert union <= set(enumerate_offsets(w, env))


class TestAntiUnification:
    def test_paper_iv_c_example(self):
        """lgg of R(n,m) and C(n,m) is 0 + {(n:a)(m:b)} (paper section IV-C)."""
        f1 = IndexFn.row_major([n, m])
        f2 = IndexFn((col_major([n, m]),))
        res = antiunify_ixfns(f1, f2)
        assert res is not None
        g = res.ixfn.as_single()
        assert g.offset == sym(0)
        assert g.dims[0].shape == n
        assert g.dims[1].shape == m
        # Strides generalized to two fresh variables:
        assert len(res.bindings) == 2
        (v1, then1, else1), (v2, then2, else2) = res.bindings
        assert (then1, else1) == (m, sym(1))
        assert (then2, else2) == (sym(1), n)
        assert g.dims[0].stride == Var(v1)
        assert g.dims[1].stride == Var(v2)

    def test_identical_ixfns_no_bindings(self):
        f = IndexFn.row_major([n, m])
        res = antiunify_ixfns(f, f)
        assert res is not None
        assert res.bindings == ()
        assert res.ixfn == f

    def test_shared_subexpression_same_variable(self):
        """The same differing pair maps to the same fresh variable (lgg)."""
        f1 = IndexFn((lmad(n, [(4, n)]),))
        f2 = IndexFn((lmad(m, [(4, m)]),))
        res = antiunify_ixfns(f1, f2)
        g = res.ixfn.as_single()
        assert len(res.bindings) == 1
        assert g.offset == g.dims[0].stride

    def test_offset_generalization(self):
        f1 = IndexFn.row_major([n], offset=0)
        f2 = IndexFn.row_major([n], offset=n * 2)
        res = antiunify_ixfns(f1, f2)
        assert len(res.bindings) == 1
        name, a, b = res.bindings[0]
        assert (a, b) == (sym(0), n * 2)

    def test_rank_mismatch_fails(self):
        assert antiunify_ixfns(IndexFn.row_major([n]), IndexFn.row_major([n, m])) is None

    def test_lmad_count_mismatch_fails(self):
        p = Prover()
        composed = IndexFn((col_major([4, 5]),)).flatten(p)
        single = IndexFn.row_major([20])
        assert antiunify_ixfns(single, composed) is None

    def test_instantiation_recovers_branches(self):
        """Substituting a branch's bindings into the lgg yields its ixfn."""
        f1 = IndexFn.row_major([n, m])
        f2 = IndexFn((col_major([n, m]),))
        res = antiunify_ixfns(f1, f2)
        then_env = {name: a for name, a, _ in res.bindings}
        else_env = {name: b for name, _, b in res.bindings}
        assert res.ixfn.substitute(then_env) == f1
        assert res.ixfn.substitute(else_env) == f2
