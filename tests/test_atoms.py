"""Atoms and words: interning, equality, hashes and sort keys, refusals."""
import copy
import json
import os
import pickle
import sys
import threading

import pytest

from laxforge import atoms, serialize
from laxforge.atoms import BASES, EMPTY_WORD, FieldAtom, Word, atom, make_word
from laxforge.ncpoly import NCPolynomial, nc_mul, scalarize
from laxforge.parser import parse_poly


def test_equality_and_hash_separate_every_field():
    a = FieldAtom("u", 1, 2, 3, ("M", "N"))
    others = [FieldAtom("uh", 1, 2, 3, ("M", "N")), FieldAtom("u", 0, 2, 3, ("M", "N")),
              FieldAtom("u", 1, 1, 3, ("M", "N")), FieldAtom("u", 1, 2, 2, ("M", "N")),
              FieldAtom("u", 1, 2, 3, ("1", "1"))]
    twin = FieldAtom("u", 1, 2, 3, ("M", "N"))
    assert twin is a and twin == a and hash(twin) == hash(a)
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
    before = dict(atoms._INTERNED)
    with pytest.raises(ValueError):
        FieldAtom(*args)
    assert atoms._INTERNED == before


def test_equal_arguments_give_the_same_atom_through_every_constructor():
    u_t = FieldAtom("u", 1, 0, 2, ("M", "N"))
    assert FieldAtom("u", 1) is FieldAtom("u", 1)
    assert atom("u", 1) is u_t and atom("u", 1, mode="scalar") is FieldAtom("u", 1)
    assert atom("u").with_derivative("t") is u_t
    assert atom("u", 1, 1).with_derivative("x") is atom("u", 1, 2)
    (word,) = scalarize(NCPolynomial.from_atom(u_t, "matrix")).terms
    assert word.atoms[0] is FieldAtom("u", 1)
    record = json.loads(serialize.dumps(NCPolynomial.from_atom(u_t, "matrix")))
    (word,) = serialize.from_dict(record).terms
    assert word.atoms[0] is u_t
    (word,) = parse_poly("u_t*uh", mode="matrix").terms
    assert word.atoms[0] is u_t and word.atoms[1] is atom("uh")


def test_pickle_and_copy_return_the_interned_atom():
    a = FieldAtom("pih", 2, 1, 3, ("M", "N"))
    assert pickle.loads(pickle.dumps(a)) is a
    assert copy.copy(a) is a and copy.deepcopy(a) is a
    w = Word((a, atom("u")))
    assert pickle.loads(pickle.dumps(w)).atoms[0] is a and copy.deepcopy(w) == w


def test_equal_atoms_give_the_same_word_through_every_constructor():
    u, uh, u_t = atom("u"), atom("uh"), atom("u", 1)
    su, suh = atom("u", mode="scalar"), atom("uh", mode="scalar")
    matrix = make_word([u, uh, u_t, uh], "matrix")
    assert matrix is Word((u, uh, u_t, uh)) is make_word((u, uh, u_t, uh), "matrix")
    assert make_word([suh, su], "scalar") is Word((su, suh)) is make_word([su, suh], "scalar")
    assert make_word([u_t, uh, u, uh], "trace") is matrix
    assert Word() is EMPTY_WORD is make_word([], "trace") is Word([])
    pu, puh = (NCPolynomial.from_atom(a, "matrix") for a in (u, uh))
    (word,) = nc_mul(nc_mul(pu, puh), nc_mul(NCPolynomial.from_atom(u_t, "matrix"), puh)).terms
    assert word is matrix
    spu, spuh = (NCPolynomial.from_atom(a, "scalar") for a in (su, suh))
    assert next(iter(nc_mul(spuh, spu).terms)) is Word((su, suh))
    (word,) = parse_poly("u*uh*u_t*uh", mode="matrix").terms
    assert word is matrix
    assert next(iter(parse_poly("uh*u").terms)) is Word((su, suh))
    p = parse_poly("u*uh*u_t*uh + 2*i*u*uh", mode="matrix")
    back = serialize.from_dict(json.loads(serialize.dumps(p)))
    assert len(p.terms) == 2 and {id(w) for w in back.terms} == {id(w) for w in p.terms}


def test_pickle_and_copy_return_the_interned_word():
    w = Word((FieldAtom("pih", 2, 1, 3, ("M", "N")), atom("u")))
    for word in (w, EMPTY_WORD):
        assert pickle.loads(pickle.dumps(word)) is word
        assert copy.copy(word) is word and copy.deepcopy(word) is word
    assert copy.deepcopy({w: 1}) == {w: 1}
    assert EMPTY_WORD.atoms == () and len(w) == 2 and Word(()) is EMPTY_WORD


def test_a_refused_word_leaves_the_table_unchanged():
    before = dict(atoms._WORDS)
    for bad in [("u", "uh"), (atom("u"), "uh"), (atom("u"), None)]:
        with pytest.raises(TypeError, match="FieldAtom"):
            Word(bad)
    assert atoms._WORDS == before


def _race(build):
    """Run ``build`` on more threads than CPUs at once, with a short switch
    interval; return each thread's result."""
    workers = min((os.cpu_count() or 2) + 2, 64)
    start, built = threading.Barrier(workers, timeout=30), []

    def run():
        start.wait()
        built.append(build())

    threads = [threading.Thread(target=run) for _ in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(built) == workers
    return built


def test_racing_constructors_share_one_atom():
    """Threads that build the same new atoms at once all get the same objects."""
    keys = [("uh", 1000 + k, 0, 2, ("N", "M")) for k in range(5000)]  # built nowhere else
    built = _race(lambda: [FieldAtom(*key) for key in keys])
    assert all(a is b for run in built for a, b in zip(run, built[0], strict=True))


def test_racing_constructors_share_one_word():
    """Threads that build the same new words at once all get the same objects."""
    u = atom("u")
    keys = [(u, FieldAtom("uh", 2000 + k, 0, 2, ("N", "M"))) for k in range(5000)]
    built = _race(lambda: [Word(list(key)) for key in keys])
    assert all(a is b for run in built for a, b in zip(run, built[0], strict=True))
    assert all(w.atoms == key for w, key in zip(built[0], keys))


def test_atoms_define_no_python_equality_hash_or_init():
    assert {"__eq__", "__hash__", "__init__"}.isdisjoint(vars(FieldAtom))
    assert {"__eq__", "__init__"}.isdisjoint(vars(Word))
    assert "__hash__" in vars(Word) and "sort_key" not in Word.__slots__
