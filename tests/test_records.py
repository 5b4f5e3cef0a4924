"""The record contract that every immutable record class keeps: value
equality within one class, hashing, immutability, Python's own argument
errors, pickling, a dataclass-style repr, and Triple's tuple order."""

import operator
import pickle
import random

import pytest

from repwords.arith import QuadInt
from repwords.corpus import CorpusReport, PatternRow, RowResult, TableCorpus
from repwords.factoring import Factorization, IntPoly
from repwords.families import NormFamily
from repwords.search import Checkpoint, SolutionRecord, load_checkpoint, write_checkpoint
from repwords.triples import Triple
from repwords.words import System, Word

W = Word(System.CANONICAL, 18, (7,))
REC = SolutionRecord(2, 3, 1, 18, 49, 7, W)
REC_REPR = (
    "SolutionRecord(q=2, n=3, l=1, b=18, y=49, c=7,"
    " w=Word(system=<System.CANONICAL: 'canonical'>, base=18, digits=(7,)))"
)

# (class, every field of one record, the same fields with one changed, its repr)
CASES = [
    (QuadInt, (3, 2, 2), (3, 2, 7), "QuadInt(a=3, b=2, d=2)"),
    (
        Word,
        (System.CANONICAL, 18, (7,)),
        (System.BIJECTIVE, 18, (7,)),
        "Word(system=<System.CANONICAL: 'canonical'>, base=18, digits=(7,))",
    ),
    (Triple, (2, 3, 1), (2, 3, 2), "Triple(q=2, n=3, l=1)"),
    (
        Factorization,
        (((2, 3), (5, 1)),),
        (((2, 3),),),
        "Factorization(factors=((2, 3), (5, 1)))",
    ),
    (IntPoly, ((1, 0, 1),), ((1, 1),), "IntPoly(coeffs=(1, 0, 1))"),
    (
        NormFamily,
        (QuadInt(1, 1, 2), QuadInt(3, 2, 2), 1, 1),
        (QuadInt(1, 1, 2), QuadInt(3, 2, 2), 2, 1),
        "NormFamily(seed=QuadInt(a=1, b=1, d=2), unit=QuadInt(a=3, b=2, d=2),"
        " step=1, modulus=1)",
    ),
    (SolutionRecord, (2, 3, 1, 18, 49, 7, W), (2, 3, 1, 18, 49, 8, W), REC_REPR),
    (
        Checkpoint,
        (Triple(2, 3, 1), ((2, 100),), (REC,), (5,)),
        (Triple(2, 3, 1), ((2, 100),), (), (5,)),
        f"Checkpoint(triple=Triple(q=2, n=3, l=1), completed=((2, 100),),"
        f" solutions=({REC_REPR},), unresolved=(5,))",
    ),
    (
        PatternRow,
        (3, 1, "(12:3n+3)212", "(1:n)2"),
        (3, 2, "(12:3n+3)212", "(1:n)2"),
        "PatternRow(base=3, row=1, y_pattern='(12:3n+3)212', w_pattern='(1:n)2')",
    ),
    (
        TableCorpus,
        ("sporadic", "solutions", (REC,)),
        ("sporadic", "solutions", ()),
        f"TableCorpus(name='sporadic', kind='solutions', rows=({REC_REPR},))",
    ),
    (
        RowResult,
        ("row 1", None),
        ("row 1", "c-range"),
        "RowResult(label='row 1', failure=None)",
    ),
    (
        CorpusReport,
        ("sporadic", (RowResult("row 1", None),)),
        ("sporadic", ()),
        "CorpusReport(corpus='sporadic', results=(RowResult(label='row 1', failure=None),))",
    ),
]

ids = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, fields, changed, text", CASES, ids=ids)
def test_equality_and_hash_go_by_class_and_fields(cls, fields, changed, text):
    rec, twin, other = cls(*fields), cls(*fields), cls(*changed)
    assert rec == twin and not rec != twin
    assert hash(rec) == hash(twin) and len({rec, twin}) == 1
    assert rec != other and not rec == other
    # a plain tuple of the same fields, and a record of another class, never equal
    assert rec != fields and fields != rec
    foreign_cls, foreign_fields, _, _ = CASES[(ids.index(cls.__name__) + 1) % len(CASES)]
    assert rec != foreign_cls(*foreign_fields)


@pytest.mark.parametrize("cls, fields, changed, text", CASES, ids=ids)
def test_fields_can_be_neither_assigned_nor_deleted(cls, fields, changed, text):
    rec = cls(*fields)
    name = text[len(cls.__name__) + 1 :].split("=")[0]  # the first field
    with pytest.raises(AttributeError):
        setattr(rec, name, getattr(rec, name))
    with pytest.raises(AttributeError):
        delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.other = 1
    assert rec == cls(*fields)


@pytest.mark.parametrize("cls, fields, changed, text", CASES, ids=ids)
def test_a_wrong_argument_count_or_keyword_is_a_type_error(cls, fields, changed, text):
    with pytest.raises(TypeError):
        cls(*fields, None)
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*fields, bogus=1)


@pytest.mark.parametrize("cls, fields, changed, text", CASES, ids=ids)
def test_pickle_round_trip(cls, fields, changed, text):
    rec = cls(*fields)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(rec, protocol))
        assert type(back) is cls and back == rec and repr(back) == text


@pytest.mark.parametrize("cls, fields, changed, text", CASES, ids=ids)
def test_repr_reads_as_the_dataclass_did(cls, fields, changed, text):
    assert repr(cls(*fields)) == text


def test_fields_by_keyword_and_the_norm_family_default():
    u = QuadInt(3, 2, 2)
    assert NormFamily(u, u, step=1) == NormFamily(u, u, 1, 1)
    assert NormFamily(seed=u, unit=u, step=1, modulus=1).modulus == 1
    assert Triple(l=1, n=3, q=2) == Triple(2, 3, 1)


def test_validation_runs_on_every_construction():
    with pytest.raises(ValueError, match="q must be >= 2"):
        Triple(1, 3, 1)
    with pytest.raises(ValueError, match="nonsquare"):
        QuadInt(1, 1, 4)
    with pytest.raises(ValueError, match="leading zero"):
        Word(System.CANONICAL, 10, (0, 1))


def test_triple_order_is_the_order_of_its_field_tuples():
    rng = random.Random(33)
    triples = [Triple(rng.randint(2, 4), rng.randint(2, 4), rng.randint(1, 3)) for _ in range(60)]
    key = operator.attrgetter("q", "n", "l")
    for a, b in zip(triples, reversed(triples)):
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            assert op(a, b) == op(key(a), key(b))
    assert list(map(key, sorted(triples))) == sorted(map(key, triples))
    with pytest.raises(TypeError):
        Triple(2, 3, 1) < (2, 3, 2)
    with pytest.raises(TypeError):
        W < W  # records other than Triple have no order


def test_the_checkpoint_line_is_cached_and_seeded_by_the_loader(tmp_path):
    rec = SolutionRecord(2, 3, 1, 18, 49, 7, W)
    assert "_checkpoint_line" not in vars(rec)
    line = rec._checkpoint_line
    assert rec._checkpoint_line is line and vars(rec)["_checkpoint_line"] is line
    path = str(tmp_path / "cp.jsonl")
    write_checkpoint(path, Checkpoint(Triple(2, 3, 1), ((18, 18),), (rec,), ()))
    (loaded,) = load_checkpoint(path).solutions
    # the loader keeps the line it read: the record never formats its own
    assert loaded == rec and vars(loaded)["_checkpoint_line"] == line
