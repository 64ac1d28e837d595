"""Atoms and words: equality, cached hashes and sort keys, refusals."""
import pytest

from laxforge.atoms import BASES, EMPTY_WORD, FieldAtom, Word, atom, make_word


def test_equality_and_hash_separate_every_field():
    a = FieldAtom("u", 1, 2, 3, ("M", "N"))
    others = [FieldAtom("uh", 1, 2, 3, ("M", "N")), FieldAtom("u", 0, 2, 3, ("M", "N")),
              FieldAtom("u", 1, 1, 3, ("M", "N")), FieldAtom("u", 1, 2, 2, ("M", "N")),
              FieldAtom("u", 1, 2, 3, ("1", "1"))]
    twin = FieldAtom("u", 1, 2, 3, ("M", "N"))
    assert twin is not a and twin == a and hash(twin) == hash(a)
    for b in others:
        assert b != a and hash(b) != hash(a)
    assert len({a, twin, *others}) == 1 + len(others)
    scalar, matrix = atom("u", mode="scalar"), atom("u", mode="matrix")
    assert scalar != matrix and matrix not in {scalar: 1}
    assert a != "u" and a.__eq__("u") is NotImplemented


def test_sort_key_is_base_index_dt_dx_flow():
    for k, base in enumerate(BASES):
        assert FieldAtom(base, 2, 1, 3).sort_key == (k, 2, 1, 3)
    w = make_word([atom("pi", 1, mode="scalar"), atom("u", 0, 1, mode="scalar")], "scalar")
    assert w.sort_key == (2, ((0, 0, 1, 2), (2, 1, 0, 2)))


def test_words_built_directly_equal_canonical_words():
    u, uh, pi = atom("u"), atom("uh", 1), atom("pi")
    w = make_word([u, uh, atom("u", 2), pi], "trace")
    for k in range(len(w)):
        rotated = Word(w.atoms[k:] + w.atoms[:k])
        canon = make_word(list(w.atoms[k:] + w.atoms[:k]), "matrix")
        assert rotated == canon and hash(rotated) == hash(canon)
        assert rotated.sort_key == canon.sort_key
    assert Word([u, uh]) == make_word((u, uh), "matrix")
    assert Word() == EMPTY_WORD == make_word([], "scalar")
    assert Word((u, uh)) != Word((uh, u)) and Word((u,)) != u


@pytest.mark.parametrize("args", [("q",), ("u", -1), ("u", 0, -1)])
def test_unknown_bases_and_negative_orders_are_refused(args):
    with pytest.raises(ValueError):
        FieldAtom(*args)
