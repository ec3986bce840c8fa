"""Byte-identity pins for the per-compile memos and the front end.

A cold compile remembers each value's inferred type and shape and each
node's phase classification for the rest of its walk, NIR values keep
their structural hash, and the lexer and the expression parser read each
token once (docs/PIPELINE.md §1 and §9).  None of that may change what
comes out, so this module pins values recorded from the compiler as it
was before those changes:

* sha256 of ``(format_host_program, node_instructions)`` for the 12
  corpus programs compiled cold for cm2, cm5 and host;
* sha256 of ``repr(tokenize(source))`` for every ``examples/*.f90`` and
  every corpus source (``ALL_KERNELS`` plus ``swe_source(512, 8)``);
* the message and position of each lexer and parser error case;
* the pickled bytes the store writes for the ``front`` and ``pass``
  artifacts of swe and redblack: no memo and no kept hash rides along;
* a NIR value pickled here and loaded in a process with another
  ``PYTHONHASHSEED`` equals, hashes like, and finds the dict entries of
  the same value built there.

CI runs this module again under ``PYTHONHASHSEED=0`` and ``1``.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import pickle
import subprocess
import sys
import textwrap

import pytest

from repro import nir
from repro.driver.compiler import CompilerOptions, compile_source
from repro.frontend.lexer import LexError, tokenize
from repro.frontend.parser import (ParseError, parse_expression,
                                   parse_program, parse_statements)
from repro.programs.kernels import ALL_KERNELS
from repro.programs.swe import swe_source
from repro.runtime.host import format_host_program
from repro.service.store import ArtifactStore

ROOT = pathlib.Path(__file__).resolve().parent.parent

SOURCES = {name: generate() for name, generate in ALL_KERNELS.items()}
SOURCES["swe"] = swe_source(512, 8)

COMPILE = {
    "heat": "14baa8d8a34f8362eb97ba26942d4e5758ce8cd2377c2363fa64fa80b5a64601",
    "life": "d049a0bb8fe24abfe9f4807149e590c3d91483fc403910604eeded3b9b13ab0b",
    "deck": "8807d48cc6b45ac940be8fa1821316f04b637d990b5cdf7d785f6df5e1acfb23",
    "where": "2161e0ffac5489f40c8345108c1663f9abe927372de2fb925efc3b860d9cd3be",
    "blocking":
        "ee7a43bc8ebffca10fef1918907c162806ffa1ab567bf0e26eddf099416a9962",
    "forall":
        "a021f58d0d01d3d6e9577152ab2409091b263594744ac6dcdddb9565849b79ed",
    "reduction":
        "b64564eb6a2672c27e2d6a598151bfc9294fa17c5ae6150eb2f627a2b4604f0f",
    "saxpy": "6eb3ebc9f17833e4272dd5886d10490c8878e5085d5a189b8e9e04b7a87848f6",
    "redblack":
        "75671b2bc4b48157715d6a16e03efdfac294998cc09fa2dba442934196c5dbe8",
    "matmul":
        "09a78dcf45710234a53f2f04586be100ba0549cbff25ee48dcdffea609549954",
    "cg": "4347c62c03032c5fea675b0f095c813cd6184f7fd59bd31763e92d9680ccc83c",
    "swe": "7214168f5dba8bcef42b0ed81b4f2689fb5e78971d2aa277edfc851529950d67",
}

TOKENS = {
    "heat": "4e68c63df3742e3a647ab1cf7689e0dc71a4a806a473df93b72a3e2b3e536334",
    "life": "bb6ad182cb288f8b497fe27d801ddb8e8deb48e3c57471a71fef2ee980408ad0",
    "deck": "6e19e689c5dbe316a960475867d58966ee34394b4361ef081d41e983e0f869ef",
    "where": "3e7d9eb014c3ae2374cbd762c95316a2ce35122d48807edbb35b69249576a2ab",
    "blocking":
        "6bf60b04efaeb2c3f3f14637a94978fca67df467c9ac0a5609590298d76aa6fb",
    "forall":
        "9726ed83e12b95a67d8fde177b093adde2337f4ee9811bcb2088b9d88097bccd",
    "reduction":
        "de7304355b962448adca520af5f60ebfc5e78f5b6437acc3c459f58fc68d65bf",
    "saxpy": "d7e33f1535d60cc5b65b3f60225b3f9c922a561c07ba243d042e0c9007bef092",
    "redblack":
        "987c5fadeb51e4b4784126f5300d15f85cbc5354b53055e80fe75f0a64047438",
    "matmul":
        "48385976f74ce7354f4ae1229e8bdda30f97e1784b277df5b85e0e5795deaf3f",
    "cg": "18fc5dde8ef8275ac9940ed840929fbe2a98a41d0abead2fa4b8333362aefe09",
    "swe": "5d48f669f006acddb1d932785facc4fef899e8b88b7405e80f5d51055778f280",
    "heat.f90":
        "42c8d20a09d2f6770e95446938fe6bdd7c938548d001c074f2421fab5aafebae",
    "life.f90":
        "99e9bcc4d8d061fb85d148f455840b3673953fdd239bf3a1b4e5e14839e9a7e3",
    "redblack.f90":
        "d8e705cda1298cecead3a7a5c95beecc946f259a4fd9166be2685b97e34f7bbe",
    "swe.f90":
        "cdf2d4676cc20d726a795f1bdab0899b4131a15aa74a05719193814919770d1d",
}

# (entry point, source, (error class, message, line, col)); the
# position of a ParseError is its token's.
ERRORS = [
    ("tokenize", "'oops",
     ("LexError", "line 1, col 1: unterminated character literal", 1, 1)),
    ("tokenize", "a @ b",
     ("LexError", "line 1, col 3: unexpected character '@'", 1, 3)),
    ("tokenize", "x = 1\ny = 'abc\n",
     ("LexError", "line 2, col 5: unterminated character literal", 2, 5)),
    ("tokenize", "a = b .foo. c",
     ("LexError", "line 1, col 7: unexpected '.'", 1, 7)),
    ("tokenize", "z = 1 # 2",
     ("LexError", "line 1, col 7: unexpected character '#'", 1, 7)),
    ("statements", "DO 10 I=1,4\nx = 1",
     ("ParseError", "line -1: missing terminator label 10 (near )", -1, 0)),
    ("statements", "where (m)\n do i=1,2\n end do\nend where",
     ("ParseError", "line 4: only assignments allowed in WHERE (near end)",
      4, 1)),
    ("expression", "1 +",
     ("ParseError", "line 1: expected an expression (near <newline>)",
      1, 4)),
    ("expression", "a < b < c",
     ("ParseError", "line 1: expected eof (near <)", 1, 7)),
    ("expression", "x .and. a < b == c",
     ("ParseError", "line 1: expected eof (near ==)", 1, 15)),
    ("expression", "a == .not. b",
     ("ParseError", "line 1: expected an expression (near .not.)", 1, 6)),
    ("expression", "(a + b",
     ("ParseError", "line 1: expected ')' (near <newline>)", 1, 7)),
    ("expression", "a ** * b",
     ("ParseError", "line 1: expected an expression (near *)", 1, 6)),
    ("statements", "x = ",
     ("ParseError", "line 1: expected an expression (near <newline>)",
      1, 4)),
    ("statements", "if (a > 1) then\n x = 1\n",
     ("ParseError", "line -1: unexpected end of input (near )", -1, 0)),
    ("statements",
     "forall (i=1:4) a(i) = 1\nforall (i=1:4)\n a(i) = 1\n b(i) = 2\n"
     "end forall",
     ("ParseError",
      "line -1: FORALL blocks must hold one assignment (near )", -1, 0)),
    ("program", "program p\ninteger, foo :: x\nend program p",
     ("ParseError", "line 2: unsupported attribute FOO (near ::)", 2, 14)),
    ("program", "program p\nreal x\nx = 1 +* 2\nend",
     ("ParseError", "line 3: expected an expression (near *)", 3, 8)),
    ("program", "program p\ncomplex z\nend",
     ("ParseError", "line 2: expected '=' (near z)", 2, 9)),
]

# Pickled bytes (meta + state, headers excluded) the store writes.
STORE_BYTES = {
    "swe": {"front": 41434, "pass": 151263},
    "redblack": {"front": 9296, "pass": 33299},
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("target", ["cm2", "cm5", "host"])
@pytest.mark.parametrize("prog", list(COMPILE))
def test_cold_compile_output_is_unchanged(prog, target):
    exe = compile_source(SOURCES[prog], CompilerOptions(target=target),
                         cache=False, incremental=False)
    blob = repr((format_host_program(exe.host_program),
                 exe.partition.node_instructions))
    assert _sha(blob) == COMPILE[prog]


def test_token_lists_are_unchanged():
    examples = {path.name: path.read_text()
                for path in sorted((ROOT / "examples").glob("*.f90"))}
    sources = {**SOURCES, **examples}
    assert sorted(sources) == sorted(TOKENS)
    got = {name: _sha(repr(tokenize(text)))
           for name, text in sources.items()}
    assert got == TOKENS


@pytest.mark.parametrize("entry,source,expected", ERRORS)
def test_front_end_errors_are_unchanged(entry, source, expected):
    run = {"tokenize": tokenize, "statements": parse_statements,
           "expression": parse_expression, "program": parse_program}[entry]
    with pytest.raises((LexError, ParseError)) as info:
        run(source)
    exc = info.value
    where = ((exc.line, exc.col) if isinstance(exc, LexError)
             else (exc.token.line, exc.token.col))
    assert (type(exc).__name__, str(exc), *where) == expected


def _body_bytes(store: ArtifactStore, kind: str) -> int:
    total = 0
    for name in os.listdir(store.objects):
        if name.endswith(f".{kind}.pkl"):
            with open(os.path.join(store.objects, name), "rb") as f:
                header = sum(len(f.readline()) for _ in range(3))
                total += os.fstat(f.fileno()).st_size - header
    return total


@pytest.mark.parametrize("prog", sorted(STORE_BYTES))
def test_store_artifacts_pickle_the_same_bytes(prog, tmp_path):
    store = ArtifactStore(str(tmp_path / "store"))
    compile_source(SOURCES[prog], CompilerOptions(), cache=False,
                   incremental=True, store=store)
    got = {kind: _body_bytes(store, kind) for kind in ("front", "pass")}
    assert got == STORE_BYTES[prog]


def _sample_values():
    """Values and clauses that hash strings, ints, floats, enums and
    nested tuples — built the same way in every process."""
    section = nir.AVar("u", nir.Subscript((
        nir.SVar("i"), nir.IndexRange(nir.int_const(2), None, None))))
    shifted = nir.FcnCall("cshift", (nir.AVar("v"), nir.int_const(1),
                                     nir.int_const(2)))
    value = nir.Binary(nir.BinOp.ADD, section, nir.Unary(
        nir.UnOp.NEG, nir.Binary(nir.BinOp.MUL, shifted,
                                 nir.float_const(0.5))))
    coord = nir.LocalUnder(nir.DomainRef("alpha"), 1)
    clause = nir.MoveClause(nir.Binary(nir.BinOp.GT, coord,
                                       nir.int_const(3)),
                            value, nir.AVar("w", nir.Everywhere()))
    return [section, shifted, value, coord, clause, nir.Everywhere(),
            section.field]


_LOAD = textwrap.dedent("""
    import pickle, sys
    from tests.test_pins import _sample_values
    loaded = pickle.loads(sys.stdin.buffer.read())
    fresh = _sample_values()
    assert loaded == fresh
    assert [hash(v) for v in loaded] == [hash(v) for v in fresh]
    table = {v: i for i, v in enumerate(fresh)}
    assert [table[v] for v in loaded] == list(range(len(fresh)))
    table = {v: i for i, v in enumerate(loaded)}
    assert [table[v] for v in fresh] == list(range(len(fresh)))
    print(hash("alpha"))
""")


def test_pickled_values_hash_afresh_under_another_hash_seed():
    values = _sample_values()
    for v in values:
        hash(v)  # every kept hash is set before pickling
    blob = pickle.dumps(values, pickle.HIGHEST_PROTOCOL)
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = {**os.environ, "PYTHONHASHSEED": seed,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)])}
    out = subprocess.run([sys.executable, "-c", _LOAD], input=blob,
                         env=env, capture_output=True, check=True)
    # The seeds really differ, so a hash carried in the pickle would
    # have missed every entry above.
    assert int(out.stdout) != hash("alpha")
