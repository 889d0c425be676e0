import json
import random
import re
from dataclasses import fields
from fractions import Fraction

import pytest

from hktlab.analyze import expected_mismatches
from hktlab.catalog import (
    CatalogError,
    available_entries,
    builtin_by_name,
    builtin_catalog,
    load,
    save,
    serialize,
)
from hktlab.hyperhermitian import hkt_check
from hktlab.invariant import rebase_algebra
from hktlab.linalg import mat_mul, sparse_matrix
from hktlab.tensors import orthonormal_frame

from oracle_impl import ALL_NAMES, dense_js, invert, transpose


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
    with pytest.raises(CatalogError, match="metric: non-orthonormal basis rejected"):
        load(write_doc(tmp_path, hopf4_doc))


def test_load_rejects_irrational_rescaling(tmp_path, hopf4_doc):
    # conformal factor 2 needs 1/sqrt(2), which has no exact representation
    for i in range(4):
        hopf4_doc["metric"][i][i] = "2"
    with pytest.raises(CatalogError, match="non-orthonormal basis rejected"):
        load(write_doc(tmp_path, hopf4_doc))


def test_load_rejects_broken_quaternion_relations(tmp_path, hopf4_doc):
    hopf4_doc["j2"], hopf4_doc["j3"] = hopf4_doc["j3"], hopf4_doc["j2"]
    with pytest.raises(CatalogError, match="quaternion relations:"):
        load(write_doc(tmp_path, hopf4_doc))


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
    lie = rebase_algebra(entry.lie, transpose(p), p_inv)
    doc["structure_constants"] = [
        [i, j, k, str(v)] for (i, j), comps in sorted(lie.brackets.items()) for k, v in comps.items()
    ]
    doc["metric"] = [[str(x) for x in row] for row in mat_mul(transpose(p), p)]
    for s, j in enumerate(dense_js(entry.structure), 1):
        doc[f"j{s}"] = [[str(x) for x in row] for row in mat_mul(p_inv, mat_mul(j, p))]
    return doc, lie


@pytest.mark.parametrize("name, seed", [("hopf4", 1), ("hopf4", 2), ("nil8", 3), ("hopf8", 4)])
def test_rebase_non_diagonal_metric_matches_invert_oracle(tmp_path, cat, name, seed):
    # g = P^T P with P rational upper-triangular: the loader's inverse B^T g
    # of the Gram-Schmidt frame B gives the brackets and J's that inverting
    # B by elimination gives, and, the diagonal of P being positive, the
    # entry P was built from
    rng = random.Random(seed)
    entry = cat[name]
    dim = entry.dim
    p = [
        [
            Fraction(rng.randint(1, 3), rng.randint(1, 3)) if i == j
            else Fraction(rng.randint(-2, 2), rng.randint(1, 3)) if i < j
            else Fraction(0)
            for j in range(dim)
        ]
        for i in range(dim)
    ]
    doc, doc_lie = _in_basis(entry, p)
    metric = [[Fraction(x) for x in row] for row in doc["metric"]]
    assert any(metric[i][j] for i in range(dim) for j in range(dim) if i != j)
    loaded = load(write_doc(tmp_path, doc))
    frame = orthonormal_frame(metric)
    base_change = transpose(frame)
    inverse = invert(base_change)
    assert loaded.lie.brackets == rebase_algebra(doc_lie, frame, inverse).brackets
    doc_js = [[[Fraction(x) for x in row] for row in doc[f"j{s}"]] for s in (1, 2, 3)]
    assert loaded.structure.j_sparse == tuple(
        sparse_matrix(mat_mul(inverse, mat_mul(j, base_change))) for j in doc_js
    )
    assert loaded.lie.brackets == entry.lie.brackets
    assert loaded.structure.j_sparse == entry.structure.j_sparse
    assert serialize(loaded)["metric"] == identity_rows(dim)


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
