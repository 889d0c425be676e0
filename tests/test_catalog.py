import json
import random
import re
from dataclasses import fields, replace
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hktlab.analyze import expected_mismatches
from hktlab.catalog import (
    CatalogError,
    _quaternionic_frame,
    _standard_structure,
    available_entries,
    builtin_by_name,
    builtin_catalog,
    load,
    save,
    serialize,
)
from hktlab import catalog, cli
from hktlab.exact import FOUR_SQUARES_STEPS, parse_scalar
from hktlab.hyperhermitian import hkt_check
from hktlab.invariant import LieAlgebra, rebase_algebra
from hktlab.linalg import identity, sparse_product, sparse_transpose

from oracle_impl import (
    ALL_NAMES,
    BREAKS,
    cayley_rotated,
    dense_js,
    dense_matrix,
    dense_parse_matrix,
    direct_sum,
    invert,
    is_signed_permutation,
    mat_mul,
    naive_quaternionic_check,
    naive_quaternionic_frame,
    parsed_wire,
    seeded_signed_triple,
    sparse_matrix,
    standard_document,
    transpose,
    with_diagonal_metric,
)


@pytest.fixture(scope="module")
def cat():
    return builtin_by_name()


def identity_rows(dim):
    return [["1" if r == c else "0" for c in range(dim)] for r in range(dim)]


def write_doc(tmp_path, doc, name="entry.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.fixture()
def hopf4_doc(cat):
    return serialize(cat["hopf4"])


def test_builtin_names_and_dims(cat):
    assert tuple(e.name for e in builtin_catalog()) == ALL_NAMES
    for entry in cat.values():
        assert entry.dim == 4 * entry.n
        assert [f.name for f in fields(entry.structure)] == ["dim", "j_sparse"]
        assert serialize(entry)["metric"] == identity_rows(entry.dim)


def built_objects(entry):
    """The objects a builtin entry is made of."""
    h = entry.structure
    return [entry, entry.lie, entry.lie.brackets, entry.expected, h, *h.j_sparse, h.permutations]


def test_builtin_catalog_builds_one_structure_per_n_per_call():
    # the entries of one call with equal n share one standard structure;
    # a second call builds all of its objects anew, so nothing is cached
    # past a call (the command line runs one call per process)
    first, second = builtin_catalog(), builtin_catalog()
    for entries in (first, second):
        structures = {entry.n: entry.structure for entry in entries}
        assert sorted(structures) == [1, 2]
        assert all(entry.structure is structures[entry.n] for entry in entries)
        assert all(h == _standard_structure(n) for n, h in structures.items())
    ids = [{id(x) for entry in entries for x in built_objects(entry)} for entries in (first, second)]
    assert not ids[0] & ids[1]


def test_round_trip_all_builtins(cat, tmp_path):
    for name, entry in cat.items():
        path = tmp_path / f"{name}.json"
        save(entry, path)
        loaded = load(path)
        assert loaded.name == entry.name
        assert loaded.description == entry.description
        assert (loaded.n, loaded.dim) == (entry.n, entry.dim)
        assert loaded.lie.brackets == entry.lie.brackets
        assert loaded.structure == entry.structure
        assert loaded.expected == entry.expected
        # serializing the reload reproduces the file byte for byte
        again = tmp_path / f"{name}.re.json"
        save(loaded, again)
        assert again.read_bytes() == path.read_bytes()


def test_load_rejects_bad_schema_version(tmp_path, hopf4_doc):
    hopf4_doc["schema_version"] = "2"
    with pytest.raises(CatalogError, match='schema_version: expected "1"'):
        load(write_doc(tmp_path, hopf4_doc))


def test_load_rejects_missing_field(tmp_path, hopf4_doc):
    del hopf4_doc["metric"]
    with pytest.raises(CatalogError, match="metric: missing required field"):
        load(write_doc(tmp_path, hopf4_doc))


def test_load_rejects_unknown_field(tmp_path, hopf4_doc):
    hopf4_doc["comment"] = "scratch"
    path = write_doc(tmp_path, hopf4_doc)
    with pytest.raises(CatalogError, match="comment: unknown field"):
        load(path)
    entry = load(path, allow_unknown=True)
    assert entry.name == "hopf4"


def test_load_rejects_non_object_top_level(tmp_path):
    path = tmp_path / "arr.json"
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(CatalogError, match="top level must be a JSON object"):
        load(path)


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(CatalogError, match="parse error"):
        load(path)


def test_load_rejects_bool_n(tmp_path, hopf4_doc):
    hopf4_doc["n"] = True
    with pytest.raises(CatalogError, match="n: expected an integer"):
        load(write_doc(tmp_path, hopf4_doc))


def test_load_rejects_empty_name(tmp_path, hopf4_doc):
    hopf4_doc["name"] = ""
    with pytest.raises(CatalogError, match="name: expected a nonempty string"):
        load(write_doc(tmp_path, hopf4_doc))


def test_load_rejects_dim_not_4n(tmp_path, hopf4_doc):
    hopf4_doc["dim"] = 5
    with pytest.raises(CatalogError, match="expected dim = 4n"):
        load(write_doc(tmp_path, hopf4_doc))


def test_load_rejects_dim_above_max(tmp_path, hopf4_doc):
    hopf4_doc["n"] = 5
    hopf4_doc["dim"] = 20
    with pytest.raises(CatalogError, match="exceeds the supported maximum 16"):
        load(write_doc(tmp_path, hopf4_doc))


def test_load_rejects_float_matrix_cell(tmp_path, hopf4_doc):
    hopf4_doc["metric"][0][0] = 1.5
    with pytest.raises(CatalogError, match=re.escape("metric[0][0]: not a rational")):
        load(write_doc(tmp_path, hopf4_doc))


def test_load_rejects_bool_matrix_cell(tmp_path, hopf4_doc):
    hopf4_doc["j1"][2][1] = True
    with pytest.raises(CatalogError, match=re.escape("j1[2][1]: not a rational")):
        load(write_doc(tmp_path, hopf4_doc))


@pytest.mark.parametrize("cell", ["\u0661", "\uff11\uff12", "1\n", [1], {"p": 1}])
def test_load_rejects_malformed_cells(tmp_path, hopf4_doc, cell):
    hopf4_doc["j1"][1][0] = cell
    with pytest.raises(CatalogError, match=re.escape(f"j1[1][0]: not a rational: {cell!r}")):
        load(write_doc(tmp_path, hopf4_doc))


def test_load_rejects_bool_cell_after_equal_cells(tmp_path, hopf4_doc):
    # "1" cells are parsed once per document; True == 1 must reuse neither
    # them nor a JSON integer 1
    assert hopf4_doc["j1"][0][1] == "1" and hopf4_doc["metric"][0][0] == "1"
    hopf4_doc["j2"][0][2] = 1
    hopf4_doc["j3"][3][3] = True
    with pytest.raises(CatalogError, match=re.escape("j3[3][3]: not a rational: True")):
        load(write_doc(tmp_path, hopf4_doc))


def test_load_rejects_zero_denominator(tmp_path, hopf4_doc):
    hopf4_doc["metric"][0][0] = "1/0"
    with pytest.raises(CatalogError, match="zero denominator"):
        load(write_doc(tmp_path, hopf4_doc))


def test_load_rejects_wrong_row_count(tmp_path, hopf4_doc):
    hopf4_doc["metric"] = hopf4_doc["metric"][:3]
    with pytest.raises(CatalogError, match="metric: expected 4 rows"):
        load(write_doc(tmp_path, hopf4_doc))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc["metric"][0].pop(), "metric[0]: expected 4 entries"),
        (lambda doc: doc.update(structure_constants={}), "structure_constants: expected a list"),
        (
            lambda doc: doc["structure_constants"][0].__setitem__(3, 1.5),
            "structure_constants[0][3]: not a rational: 1.5",
        ),
        (lambda doc: doc.update(description=7), "description: expected a string"),
    ],
    ids=["short_row", "constants_not_a_list", "float_constant", "description_not_a_string"],
)
def test_load_rejects_malformed_fields(tmp_path, hopf4_doc, capsys, edit, message):
    edit(hopf4_doc)
    path = write_doc(tmp_path, hopf4_doc)
    with pytest.raises(CatalogError) as info:
        load(path)
    assert str(info.value) == message
    assert cli.main(["check", str(path)]) == 1
    assert capsys.readouterr() == ("", f"invalid input: {message}\n")


def test_load_rejects_malformed_triple(tmp_path, hopf4_doc):
    hopf4_doc["structure_constants"].append([1, 2])
    with pytest.raises(CatalogError, match=re.escape("expected [i, j, k, value]")):
        load(write_doc(tmp_path, hopf4_doc))


def test_load_rejects_repeated_lower_index(tmp_path, hopf4_doc):
    hopf4_doc["structure_constants"].append([1, 1, 3, "2"])
    with pytest.raises(CatalogError, match="repeated lower index i=j=1"):
        load(write_doc(tmp_path, hopf4_doc))


def test_load_rejects_out_of_range_index(tmp_path, hopf4_doc):
    hopf4_doc["structure_constants"].append([1, 9, 3, "2"])
    with pytest.raises(CatalogError, match=re.escape("index j=9 out of range 0..3")):
        load(write_doc(tmp_path, hopf4_doc))


def test_load_rejects_duplicate_triple(tmp_path, hopf4_doc):
    hopf4_doc["structure_constants"].append(list(hopf4_doc["structure_constants"][0]))
    with pytest.raises(CatalogError, match="duplicate structure constant at"):
        load(write_doc(tmp_path, hopf4_doc))


def test_load_rejects_antisymmetry_conflict(tmp_path, hopf4_doc):
    i, j, k, value = hopf4_doc["structure_constants"][0]
    hopf4_doc["structure_constants"].append([j, i, k, value])
    with pytest.raises(CatalogError, match="antisymmetry violation at"):
        load(write_doc(tmp_path, hopf4_doc))


def test_load_rejects_conflicting_duplicate(tmp_path, hopf4_doc):
    # a second value for the same ordered triple is no antisymmetry question
    i, j, k, value = hopf4_doc["structure_constants"][0]
    hopf4_doc["structure_constants"].append([i, j, k, "5"])
    with pytest.raises(CatalogError) as info:
        load(write_doc(tmp_path, hopf4_doc))
    assert str(info.value) == (
        f"structure_constants[3]: conflicting duplicate structure constant at {(i, j, k)}"
    )


def test_load_accepts_swapped_index_order(tmp_path, hopf4_doc, cat):
    # [j, i, k, -v] is the same bracket; the loader canonicalizes it
    triples = [[j, i, k, "-" + v if not v.startswith("-") else v[1:]]
               for i, j, k, v in hopf4_doc["structure_constants"]]
    hopf4_doc["structure_constants"] = triples
    entry = load(write_doc(tmp_path, hopf4_doc))
    assert entry.lie.brackets == cat["hopf4"].lie.brackets


def test_load_rejects_jacobi_failure(tmp_path, hopf4_doc):
    hopf4_doc["structure_constants"] = [[0, 1, 2, "1"], [0, 2, 0, "1"]]
    with pytest.raises(CatalogError, match="Jacobi identity fails at"):
        load(write_doc(tmp_path, hopf4_doc))


def test_load_rejects_asymmetric_metric(tmp_path, hopf4_doc):
    hopf4_doc["metric"][0][1] = "1"
    with pytest.raises(CatalogError, match="metric: not symmetric"):
        load(write_doc(tmp_path, hopf4_doc))


def test_load_rejects_indefinite_metric(tmp_path, hopf4_doc):
    for i in range(4):
        hopf4_doc["metric"][i][i] = "-1"
    with pytest.raises(CatalogError, match="metric: not positive-definite"):
        load(write_doc(tmp_path, hopf4_doc))


def test_load_rejects_degenerate_metric(tmp_path, cat):
    # diag(I, 0) is J-invariant and semidefinite: w = g(e4, e4) = 0 at step 4
    doc = serialize(cat["hopf8"])
    for i in range(4, 8):
        doc["metric"][i][i] = "0"
    with pytest.raises(CatalogError, match="metric: not positive-definite"):
        load(write_doc(tmp_path, doc))


def test_load_accepts_metric_without_rational_square_root(tmp_path, hopf4_doc, cat):
    # conformal factor 2: 1/2 = (1/2)^2 + (1/2)^2, so the frame starts with
    # u = (e0 + J1 e0) / 2 and needs no square root of 2
    for i in range(4):
        hopf4_doc["metric"][i][i] = "2"
    entry = load(write_doc(tmp_path, hopf4_doc))
    assert serialize(entry)["metric"] == identity_rows(4)
    assert all(is_signed_permutation(j, 4) for j in entry.structure.j_sparse)
    assert hkt_check(entry.structure, entry.lie).ok
    assert entry.lie.brackets != cat["hopf4"].lie.brackets


def _scaled_hopf4(tmp_path, doc, n):
    # metric I / n: the weight of e0 is 1/n, so the search writes n as a sum
    # of four squares
    for i in range(4):
        doc["metric"][i][i] = f"1/{n}"
    return write_doc(tmp_path, doc, f"hopf4_{n}.json")


# n whose four-squares search takes 96094 steps, and one that takes 102756
WEIGHT_INSIDE_BOUND = 960476884977240127846462501292923
WEIGHT_PAST_BOUND = 126478651745802162712388576466247


def test_load_accepts_weight_inside_the_search_bound(tmp_path, hopf4_doc):
    assert FOUR_SQUARES_STEPS == 100_000
    entry = load(_scaled_hopf4(tmp_path, hopf4_doc, WEIGHT_INSIDE_BOUND))
    assert hkt_check(entry.structure, entry.lie).ok


def test_load_rejects_weight_past_the_search_bound(tmp_path, hopf4_doc, capsys):
    path = _scaled_hopf4(tmp_path, hopf4_doc, WEIGHT_PAST_BOUND)
    with pytest.raises(CatalogError) as info:
        load(path)
    assert str(info.value) == (
        f"metric: weight 1/{WEIGHT_PAST_BOUND}:"
        " the four-squares search took over 100000 steps"
    )
    assert cli.main(["check", str(path)]) == 1
    assert "four-squares search" in capsys.readouterr().err


def test_load_rejects_broken_quaternion_relations(tmp_path, hopf4_doc):
    hopf4_doc["j2"], hopf4_doc["j3"] = hopf4_doc["j3"], hopf4_doc["j2"]
    with pytest.raises(CatalogError) as info:
        load(write_doc(tmp_path, hopf4_doc))
    assert str(info.value) == "quaternion relations: J1*J2 != J3; J2*J1 != -J3"


@pytest.mark.parametrize("dim", [4, 8, 16])
def test_standard_documents_load_exactly_when_the_relations_hold(tmp_path, dim):
    # seeded signed-permutation triples as standard-basis documents, most of
    # them with a relation broken: the loader composes the relations on the
    # permutations, and accepts exactly when the dense products find no
    # violation; otherwise its message lists the dense violations in order
    kinds = set()
    for seed in range(3 * len(BREAKS)):
        kind, js = seeded_signed_triple(dim, seed)
        doc = standard_document(f"triple{seed}", js)
        want = naive_quaternionic_check([dense_matrix(j, dim) for j in js], identity(dim))
        assert not any(issue.startswith("metric ") for issue in want)
        path = write_doc(tmp_path, doc)
        if want:
            with pytest.raises(CatalogError) as info:
                load(path)
            assert str(info.value) == "quaternion relations: " + "; ".join(want), (seed, kind)
        else:
            assert load(path).structure.j_sparse == js, (seed, kind)
        kinds.add((kind, not want))
    assert {accepted for _, accepted in kinds} == {True, False}


def test_load_rejects_metric_that_is_not_j_invariant(tmp_path, hopf4_doc):
    # diag(1, 4, 1, 4) has the rational orthonormal frame (e0, e1/2, e2, e3/2),
    # in which J1 and J3 are no longer orthogonal
    for i in (1, 3):
        hopf4_doc["metric"][i][i] = "4"
    with pytest.raises(CatalogError) as info:
        load(write_doc(tmp_path, hopf4_doc))
    assert str(info.value) == "metric: not J1-invariant; not J3-invariant"


def test_load_rejects_non_map_expected(tmp_path, hopf4_doc):
    hopf4_doc["expected"] = []
    with pytest.raises(CatalogError, match="expected: expected a map"):
        load(write_doc(tmp_path, hopf4_doc))


def test_rebase_on_load(tmp_path, hopf4_doc, cat):
    # conformal factor 4 rescales the frame by 1/2 exactly
    for i in range(4):
        hopf4_doc["metric"][i][i] = "4"
    entry = load(write_doc(tmp_path, hopf4_doc))
    assert serialize(entry)["metric"] == identity_rows(4)
    assert entry.lie.brackets == {(1, 2): {3: 1}, (1, 3): {2: -1}, (2, 3): {1: 1}}
    assert entry.structure.j_sparse == cat["hopf4"].structure.j_sparse
    assert hkt_check(entry.structure, entry.lie).ok


def test_rebase_blockwise_conformal(tmp_path, cat):
    doc = serialize(cat["hopf8"])
    for i in range(8):
        doc["metric"][i][i] = "4" if i < 4 else "9"
    entry = load(write_doc(tmp_path, doc))
    assert serialize(entry)["metric"] == identity_rows(8)
    assert entry.lie.brackets == {
        (1, 2): {3: 1},
        (1, 3): {2: -1},
        (2, 3): {1: 1},
        (5, 6): {7: Fraction(2, 3)},
        (5, 7): {6: Fraction(-2, 3)},
        (6, 7): {5: Fraction(2, 3)},
    }
    assert hkt_check(entry.structure, entry.lie).ok


def _in_basis(entry, p):
    """Wire document of entry in the basis given by the columns of p, whose
    metric is p^T p, and its Lie algebra."""
    doc = serialize(entry)
    p_inv = invert(p)
    lie = rebase_algebra(entry.lie, sparse_matrix(transpose(p)), sparse_matrix(p_inv))
    doc["structure_constants"] = [
        [i, j, k, str(v)] for (i, j), comps in sorted(lie.brackets.items()) for k, v in comps.items()
    ]
    doc["metric"] = [[str(x) for x in row] for row in mat_mul(transpose(p), p)]
    for s, j in enumerate(dense_js(entry.structure), 1):
        doc[f"j{s}"] = [[str(x) for x in row] for row in mat_mul(p_inv, mat_mul(j, p))]
    return doc, lie


def _upper_triangular(dim, seed):
    """A rational upper-triangular matrix with a positive diagonal."""
    rng = random.Random(seed)
    return [
        [
            Fraction(rng.randint(1, 3), rng.randint(1, 3)) if i == j
            else Fraction(rng.randint(-2, 2), rng.randint(1, 3)) if i < j
            else Fraction(0)
            for j in range(dim)
        ]
        for i in range(dim)
    ]


@pytest.mark.parametrize("name, seed", [("hopf4", 1), ("hopf4", 2), ("nil8", 3), ("hopf8", 4)])
def test_rebase_non_diagonal_metric_matches_invert_oracle(tmp_path, cat, name, seed):
    # g = P^T P with P rational upper-triangular: the loader's inverse B^T g
    # of its quaternionic frame B (built here from dense products) gives the
    # brackets and J's that inverting B by elimination gives, and, the
    # diagonal of P being positive, the entry P was built from
    entry = cat[name]
    dim = entry.dim
    doc, doc_lie = _in_basis(entry, _upper_triangular(dim, seed))
    metric = [[Fraction(x) for x in row] for row in doc["metric"]]
    assert any(metric[i][j] for i in range(dim) for j in range(dim) if i != j)
    loaded = load(write_doc(tmp_path, doc))
    doc_js = [[[Fraction(x) for x in row] for row in doc[f"j{s}"]] for s in (1, 2, 3)]
    frame = naive_quaternionic_frame(metric, doc_js)
    base_change = transpose(frame)
    inverse = invert(base_change)
    rebased = rebase_algebra(doc_lie, sparse_matrix(frame), sparse_matrix(inverse))
    assert loaded.lie.brackets == rebased.brackets
    assert loaded.structure.j_sparse == tuple(
        sparse_matrix(mat_mul(inverse, mat_mul(j, base_change))) for j in doc_js
    )
    assert loaded.lie.brackets == entry.lie.brackets
    assert loaded.structure.j_sparse == entry.structure.j_sparse
    assert serialize(loaded)["metric"] == identity_rows(dim)


def test_frame_js_match_the_product_form(tmp_path, cat, su3):
    # the loader reads each J in its frame off the blocks; the product
    # inverse * J * B of that frame B gives the same sparse matrices, key
    # order included, on Cayley-rotated J's and on non-identity metrics
    docs = [cayley_rotated(entry) for entry in (*cat.values(), su3)]
    for name, diagonal in [("hopf8", ("7/5", "7/5")), ("hopf8", ("2", "3")), ("nil8", ("1/3", "5"))]:
        docs.append(with_diagonal_metric(cat[name], diagonal))
    for name, seed in [("hopf4", 1), ("hopf8", 4)]:
        docs.append(_in_basis(cat[name], _upper_triangular(cat[name].dim, seed))[0])
    for doc in docs:
        dim = doc["dim"]
        g = sparse_matrix([[parse_scalar(x) for x in row] for row in doc["metric"]])
        _, js = parsed_wire(doc)
        frame, inverse, j_frame = _quaternionic_frame(g, js, dim)
        base_change = sparse_transpose(frame)
        products = tuple(sparse_product(inverse, sparse_product(j, base_change)) for j in js)
        assert [list(j.items()) for j in j_frame] == [list(j.items()) for j in products]
        assert load(write_doc(tmp_path, doc)).structure.j_sparse == products, doc["name"]


def _ordered(table):
    return [(key, [(k, v, type(v)) for k, v in row.items()]) for key, row in table.items()]


def test_identity_metric_and_signed_permutations_load_unchanged(
    tmp_path, cat, su3_path, monkeypatch
):
    # the frame of an identity metric and signed-permutation J's is the
    # standard basis, so the loader walks no frame there: the loaded
    # brackets and J's are the wire values, each with the scalar type its
    # cell parses to, and what `_quaternionic_frame` and `rebase_algebra`
    # give on the parsed document, item by item and in order. A rotated
    # basis and a scaled metric still take the frame walk, once each
    docs = [serialize(entry) for entry in cat.values()]
    docs.append(json.loads(su3_path.read_text(encoding="utf-8")))
    by_name = {doc["name"]: doc for doc in docs}
    for first, second in (("nil8", "hopf4"), ("hopf8", "hopf8"), ("hc_only8", "hc_only8")):
        docs.append(direct_sum(by_name[first], by_name[second]))
    wire = []
    for doc in docs:
        brackets, js = parsed_wire(doc)
        dim = doc["dim"]
        g = sparse_matrix([[parse_scalar(x) for x in row] for row in doc["metric"]])
        frame, inverse, j_frame = _quaternionic_frame(g, js, dim)
        lie = rebase_algebra(LieAlgebra(dim, brackets), frame, inverse)
        wire.append((_ordered(brackets), list(map(_ordered, js))))
        assert (_ordered(lie.brackets), list(map(_ordered, j_frame))) == wire[-1], doc["name"]
    calls = []
    for name in ("_quaternionic_frame", "rebase_algebra"):
        spied = getattr(catalog, name)
        monkeypatch.setattr(
            catalog, name, lambda *args, name=name, spied=spied: calls.append(name) or spied(*args)
        )
    for doc, want in zip(docs, wire):
        entry = load(write_doc(tmp_path, doc))
        got = (_ordered(entry.lie.brackets), list(map(_ordered, entry.structure.j_sparse)))
        assert got == want, doc["name"]
        assert calls == [], doc["name"]
    for doc in (cayley_rotated(cat["hopf8"]), with_diagonal_metric(cat["hopf8"], ("2", "3"))):
        load(write_doc(tmp_path, doc))
        assert calls == ["_quaternionic_frame", "rebase_algebra"], doc["name"]
        calls.clear()


# Matrix-field faults for the loader parity test: cells that parse to a
# value (some to zero, some to 1), cells the parser rejects, a nested list,
# and a short row.
FAULT_CELLS = (
    True, False, 1.0, 0.0, 0, 1, -1, "-0", "0/7", "2/2", "-2/2", "1/0", " 1", [["1"]], ["0"]
)
RESPELLED = {"0": "-0", "1": "2/2", "-1": "-3/3"}
faults = st.tuples(
    st.sampled_from(("metric", "j1", "j2", "j3")),
    st.integers(0, 15),
    st.integers(0, 15),
    st.sampled_from(FAULT_CELLS + ("short row", "zero cell", "same value")),
)


@pytest.fixture(scope="module")
def parity_docs(cat, su3_path):
    """Wire documents of dim 8 and 16: standard-basis ones and, through
    su3's and the rotated hopf8's, ones that take the frame walk."""
    docs = {name: serialize(cat[name]) for name in ("hopf8", "nil8", "hc_only8")}
    docs["su3"] = json.loads(su3_path.read_text(encoding="utf-8"))
    docs["rotated hopf8"] = cayley_rotated(cat["hopf8"])
    docs["nil8+hopf8"] = direct_sum(docs["nil8"], docs["hopf8"])
    docs["hc_only8+su3"] = direct_sum(docs["hc_only8"], docs["su3"])
    return docs


def _load_outcome(path):
    """The loaded entry's name, brackets and J's, each value with its type
    and in order, or the loader's message."""
    try:
        entry = load(path)
    except CatalogError as exc:
        return str(exc)
    return entry.name, _ordered(entry.lie.brackets), list(map(_ordered, entry.structure.j_sparse))


@pytest.fixture(scope="module")
def parity_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("parity")


@given(
    name=st.sampled_from(
        ["hopf8", "nil8", "hc_only8", "su3", "rotated hopf8", "nil8+hopf8", "hc_only8+su3"]
    ),
    edits=st.lists(faults, min_size=1, max_size=3),
)
@settings(max_examples=150, deadline=None)
def test_sparse_matrix_parse_matches_the_dense_parse(parity_docs, parity_dir, name, edits):
    # the loader, which parses matrix fields into sparse rows, against the
    # same loader on the dense parse it replaced: the same entry, value
    # types included, or the same message
    doc = json.loads(json.dumps(parity_docs[name]))
    dim = doc["dim"]
    for field, r, c, cell in edits:
        row = doc[field][r % dim]
        if not isinstance(row, list) or len(row) <= c % dim:
            continue
        if cell == "short row":
            del row[c % dim]
        elif cell == "zero cell":
            row[c % dim] = "0"
        elif cell == "same value":  # another spelling of a wire string's value
            if isinstance(row[c % dim], str):
                row[c % dim] = RESPELLED.get(row[c % dim], row[c % dim])
        else:
            row[c % dim] = cell
    path = write_doc(parity_dir, doc)
    got = _load_outcome(path)
    with mock.patch.object(catalog, "_parse_matrix", dense_parse_matrix):
        assert got == _load_outcome(path)


def test_available_entries_env_dir(tmp_path, monkeypatch, cat):
    custom = serialize(cat["hopf4"])
    custom["name"] = "custom1"
    write_doc(tmp_path, custom, "custom1.json")
    monkeypatch.setenv("HKTLAB_CATALOG_DIR", str(tmp_path))
    entries = available_entries()
    assert set(entries) == set(ALL_NAMES) | {"custom1"}
    assert entries["custom1"].lie.brackets == cat["hopf4"].lie.brackets
    monkeypatch.delenv("HKTLAB_CATALOG_DIR")
    assert set(available_entries()) == set(ALL_NAMES)


def test_expected_maps_match_analysis(cat, analyses):
    for name in ALL_NAMES:
        assert expected_mismatches(cat[name], analyses[name]) == [], name


def test_expected_mismatches_name_each_unmet_expectation(cat, analyses):
    entry = replace(cat["hopf4"], expected={"no_such_flag": True, "hkt": True, "strong": False})
    assert expected_mismatches(entry, analyses["hopf4"]) == [
        "no_such_flag: no analyzer output for this expectation",
        "strong: expected False, analyzer produced True",
    ]
