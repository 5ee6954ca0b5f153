"""Job files: a single JSON document describing a verification task.

Schema (version 1)::

    {
      "schema": 1,
      "name": "...",                         # optional
      "ring": {
        "variables": ["x1", "y1"],
        "field": "q" | "fp:32003",           # default "q"
        "order": {"kind": "grevlex"|"lex",
                   "priority": [0, 1]},      # optional
        "relations": ["x1*y1"]
      },
      "complexes": [
        {"name": "total",
         "ranks": {"0": 4, "1": 4},          # degree -> rank, canonical keys
         "differentials": {"1": [["x1"]]}}   # degree -> matrix of strings
      ],
      "diagonal": {                           # verify requires it unless
        "complex": "total",                   #   expectation is exact_everywhere
        "ideal": ["x1-x2"],
        "degree": 0,
        "augmentation": ["0", "1"],
        "window": [-1, 3]                     # optional
      },
      "expectation": "qiso_to_diagonal" | "exact_everywhere",
      "witness": {                            # optional
        "claimed_time": 1,
        "generators": [{"label": "O", "kind": "product" | "weakly_product",
                        "certificate": {"source": "O", "target": "P"}}],
        "steps": [{"target": "R0",            # R_0, the sum of the summands
                   "summands": [{"label": "I", "shift": 0, "multiplicity": 1,
                                 "model": "I"}]},
                  {"target": "R1",            # R_1 = cone(map)
                   "map": {"source": "S1", "target": "R0",  # S_1[-1] -> R_0
                           "matrices": {"0": [["x1"]]}},
                   "summands": [...]}],
        "conclusion": "..."
      }
    }

The diagonal block's "complex", if given, must name one of the job's
complexes.  The witness's final complex is its last step's target, checked
against the diagonal block, whose "complex", if given, must name that
target.  A key the schema does not name, in any object but those keyed by
degree, is rejected with its path; the declaration rules live in
witness.check_declarations, which parsing gives the block's path.
JobFileError, the error of every malformed job file, is defined in _terms
beside InputDataError and re-exported here: the CLI catches it on every
path, and loads this module only on a --job path.

A degree key is an integer spelled canonically (str(int(k)) == k), and no
JSON object may repeat a key; either is an input error naming the key (a
repeated one with the path of its object).

All polynomial entries are strings in the polynomial grammar.  Parsing
reports the offending JSON path on failure; polynomial parse errors carry
their position in the string.  Each distinct entry string is parsed once
per job, and equal strings share one Polynomial (polynomials are immutable).
Matrices are written densely, and each row is parsed into a dict of its
nonzero entries.  A declared rank above MAX_RANK (a complex's or module.rank),
a witness step whose declared sum reaches a rank or a multiplicity above it,
and a degree, window end or shift outside [-MAX_DEGREE, MAX_DEGREE] are input
errors: every complex or module a job declares then has a bounded rank, in
each of a bounded number of degrees.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import compress, repeat
from operator import ne
from typing import Optional

from ._terms import JobFileError
from .complexes import ChainComplex, ChainMap, DiagonalSpec, InputDataError
from .matrices import Matrix, mat_to_strings
from .polyring import MonomialOrder, ParseError, QuotientRing
from .scalars import field_from_spec, field_spec_str
from .witness import (ConeCertificate, DeclaredSummand, GenerationWitness,
                      GeneratorDecl, WitnessStep, check_declarations)

SCHEMA = 1
# The largest rank a complex may declare: about nine times the largest
# catalog rank (232, the cycle's diagonal chart).  Not settable.
MAX_RANK = 2048
# The largest absolute degree, window end or shift a job may name: the
# catalog's complexes live in degrees -1..5.  Not settable.
MAX_DEGREE = 32


class Job:
    def __init__(self, name: str, ring: QuotientRing, complexes: dict, expectation: str,
                 diagonal: Optional[DiagonalSpec], diagonal_complex: Optional[str],
                 witness: Optional[GenerationWitness] = None,
                 gb_module: Optional[dict] = None):
        self.name = name
        self.ring = ring
        self.complexes = complexes            # name -> ChainComplex
        self.expectation = expectation
        self.diagonal = diagonal
        self.diagonal_complex = diagonal_complex
        self.witness = witness
        self.gb_module = gb_module            # {"rank": int, "generators": [...]}


def _need(d: dict, key: str, path: str):
    if key not in d:
        raise JobFileError(f"missing key {key!r} at {path}")
    return d[key]


def _typed(v, kind, what: str, path: str):
    if isinstance(v, bool) or not isinstance(v, kind):
        raise JobFileError(f"expected {what} at {path}, got {v!r}")
    return v


def _obj(v, path: str) -> dict:
    return _typed(v, dict, "an object", path)


def _fields(v, path: str, keys: tuple) -> dict:
    """An object at path whose every key is one of keys ("$" is the top level)."""
    for key in _obj(v, path):
        if key not in keys:
            raise JobFileError(f"unknown key at {key if path == '$' else f'{path}.{key}'}")
    return v


def _list(v, path: str) -> list:
    return _typed(v, list, "a list", path)


def _str(v, path: str) -> str:
    return _typed(v, str, "a string", path)


def _int(v, path: str, key: bool = False) -> int:
    """An integer.  Only a JSON object key (key=True), which is always a
    string, may spell one as a string, and only canonically (str(int(v)) == v),
    as "01", "+1" or " 1" would let two keys of one object name one degree."""
    if key:
        try:
            if str(int(v)) == v:
                return int(v)
        except ValueError:
            pass
    return _typed(v, int, "an integer", path)


def _degree(v, path: str, key: bool = False) -> int:
    """A degree, window end or shift: an integer of absolute value at most MAX_DEGREE."""
    k = _int(v, path, key)
    if abs(k) > MAX_DEGREE:
        raise JobFileError(f"degree {k} outside [-{MAX_DEGREE}, {MAX_DEGREE}] at {path}")
    return k


def _strs(v, path: str) -> list:
    return [_str(s, f"{path}[{i}]") for i, s in enumerate(_list(v, path))]


def _poly(rng: QuotientRing, v, path: str, memo: dict):
    """Parse a string entry and store it in memo; a bad entry is never stored."""
    try:
        p = rng.parse(_str(v, path))
    except ParseError as exc:
        raise JobFileError(f"bad polynomial at {path}: {exc}") from exc
    memo[v] = p
    return p


def _polys(rng: QuotientRing, v, path: str, memo: dict) -> list:
    """A list of entries; memo maps each string already parsed to its Polynomial."""
    return [memo[s] if type(s) is str and s in memo else _poly(rng, s, f"{path}[{i}]", memo)
            for i, s in enumerate(_list(v, path))]


def _matrix(rng: QuotientRing, v, path: str, memo: dict) -> Matrix:
    """A dense list of rows as a Matrix.  Entries spelled "0" are skipped
    without a Python step each (compress); the first bad entry in row-major
    order is the one reported."""
    raw = _list(v, path)
    rows = []
    for i, row in enumerate(raw):
        rpath = f"{path}[{i}]"
        entries = {}
        for c in compress(range(len(_list(row, rpath))), map(ne, row, repeat("0"))):
            s = row[c]
            p = memo[s] if type(s) is str and s in memo else _poly(rng, s, f"{rpath}[{c}]", memo)
            if p.terms:
                entries[c] = p
        rows.append(entries)
    if any(len(row) != len(raw[0]) for row in raw):
        raise JobFileError(f"ragged matrix at {path}")
    return Matrix(rng, len(raw), len(raw[0]) if raw else 0, rows)


def _by_degree(v, path: str) -> list:
    """(degree, value, path of the value) for an object keyed by degree."""
    return [(_degree(k, f"{path}.{k}", key=True), x, f"{path}.{k}")
            for k, x in _obj(v, path).items()]


def _ring_part(make, path: str):
    """make(); a ValueError it raises is a bad ring at path."""
    try:
        return make()
    except ValueError as exc:
        raise JobFileError(f"bad ring at {path}: {exc}") from exc


def parse_ring(d: dict, path: str = "ring") -> QuotientRing:
    _fields(d, path, ("variables", "field", "order", "relations"))
    variables = _strs(_need(d, "variables", path), f"{path}.variables")
    spec = _str(d.get("field", "q"), f"{path}.field")
    fld = _ring_part(lambda: field_from_spec(spec), f"{path}.field")
    order = None
    if "order" in d:
        opath = f"{path}.order"
        od = _fields(d["order"], opath, ("kind", "priority"))
        kind = _str(od.get("kind", "grevlex"), f"{opath}.kind")
        ppath, prio = f"{opath}.priority", od.get("priority")
        if prio is not None:
            prio = [_int(i, f"{ppath}[{k}]") for k, i in enumerate(_list(prio, ppath))]
        order = _ring_part(lambda: MonomialOrder(kind, prio), f"{opath}.kind")
        if prio is not None:  # the packing is where a priority must permute the variables
            _ring_part(lambda: order.packing(len(variables)), ppath)
    rng = _ring_part(lambda: QuotientRing(variables, field=fld, order=order), f"{path}.variables")
    rels = _polys(rng, d.get("relations", []), f"{path}.relations", {})
    _ring_part(lambda: rng._set_relations(rels), f"{path}.relations")
    return rng


def parse_complex(d: dict, rng: QuotientRing, path: str,
                  memo: Optional[dict] = None) -> ChainComplex:
    _fields(d, path, ("name", "ranks", "differentials"))
    memo = {} if memo is None else memo
    ranks = {}
    for k, v, kpath in _by_degree(_need(d, "ranks", path), f"{path}.ranks"):
        ranks[k] = _int(v, kpath)
        if ranks[k] < 0:
            raise JobFileError(f"negative rank at {kpath}")
        if ranks[k] > MAX_RANK:
            raise JobFileError(f"rank {ranks[k]} above the maximum {MAX_RANK} at {kpath}")
    diffs = {k: _matrix(rng, rows, kpath, memo) for k, rows, kpath
             in _by_degree(d.get("differentials", {}), f"{path}.differentials")}
    try:
        return ChainComplex(rng, ranks, diffs, check=True)
    except InputDataError as exc:
        raise JobFileError(f"invalid complex at {path}: {exc}") from exc


def parse_diagonal(d: dict, rng: QuotientRing, path: str = "diagonal",
                   memo: Optional[dict] = None) -> DiagonalSpec:
    _fields(d, path, ("complex", "ideal", "degree", "augmentation", "window"))
    memo = {} if memo is None else memo
    ideal = _polys(rng, _need(d, "ideal", path), f"{path}.ideal", memo)
    aug = _polys(rng, _need(d, "augmentation", path), f"{path}.augmentation", memo)
    degree = _degree(_need(d, "degree", path), f"{path}.degree")
    window = None
    if "window" in d:
        raw = _list(d["window"], f"{path}.window")
        if len(raw) != 2:
            raise JobFileError(f"expected [lo, hi] at {path}.window, got {raw!r}")
        window = tuple(_degree(w, f"{path}.window[{i}]") for i, w in enumerate(raw))
        if window[0] > window[1]:
            raise JobFileError(f"expected lo <= hi at {path}.window, got {raw!r}")
    return DiagonalSpec(ideal=ideal, degree=degree, augmentation=aug, window=window)


def _named(complexes: dict, v, path: str) -> ChainComplex:
    name = _str(v, path)
    if name not in complexes:
        raise JobFileError(f"unknown complex {name!r} at {path}")
    return complexes[name]


def parse_witness(d: dict, rng: QuotientRing, complexes: dict,
                  diagonal: Optional[DiagonalSpec] = None,
                  path: str = "witness", memo: Optional[dict] = None) -> GenerationWitness:
    _fields(d, path, ("claimed_time", "generators", "steps", "conclusion"))
    memo = {} if memo is None else memo
    gens = []
    for i, g in enumerate(_list(d.get("generators", []), f"{path}.generators")):
        gpath = f"{path}.generators[{i}]"
        _fields(g, gpath, ("label", "kind", "certificate"))
        cert = None
        if "certificate" in g:
            cpath = f"{gpath}.certificate"
            c = _fields(g["certificate"], cpath, ("source", "target"))
            cert = ConeCertificate(_str(_need(c, "source", cpath), f"{cpath}.source"),
                                   _str(_need(c, "target", cpath), f"{cpath}.target"))
        kind = _str(_need(g, "kind", gpath), f"{gpath}.kind")
        if kind == "weakly_product":
            _need(g, "certificate", gpath)
        label = _str(_need(g, "label", gpath), f"{gpath}.label")
        try:
            gens.append(GeneratorDecl(label, kind, cert))
        except InputDataError as exc:  # the kind is neither product nor weakly_product
            raise JobFileError(f"{exc} at {gpath}.kind") from exc
    steps = []
    for i, s in enumerate(_list(d.get("steps", []), f"{path}.steps")):
        spath = f"{path}.steps[{i}]"
        _fields(s, spath, ("target", "map", "summands"))
        summands, total = [], {}  # total: degree -> rank of the declared sum
        for k, q in enumerate(_list(s.get("summands", []), f"{spath}.summands")):
            qpath = f"{spath}.summands[{k}]"
            _fields(q, qpath, ("label", "shift", "multiplicity", "model"))
            model = _named(complexes, q["model"], f"{qpath}.model") if q.get("model") else None
            mult = _int(q.get("multiplicity", 1), f"{qpath}.multiplicity")
            if mult < 1:
                raise JobFileError(f"multiplicity below 1 at {qpath}.multiplicity")
            label = _str(_need(q, "label", qpath), f"{qpath}.label")
            sh = _degree(q.get("shift", 0), f"{qpath}.shift")
            summands.append(DeclaredSummand(label, sh, mult, model))
            # The witness builds this sum, so it is bounded like a declared
            # complex; the multiplicity too, as a model may be zero.
            for deg, r in (model.ranks.items() if model is not None else ()):
                total[deg + sh] = total.get(deg + sh, 0) + mult * r
            if mult > MAX_RANK or any(r > MAX_RANK for r in total.values()):
                raise JobFileError(f"declared sum above the maximum rank {MAX_RANK} "
                                   f"at {qpath}.multiplicity")
        target = _named(complexes, _need(s, "target", spath), f"{spath}.target")
        step_map = None
        if s.get("map") is not None:
            mpath = f"{spath}.map"
            m = _fields(s["map"], mpath, ("source", "target", "matrices"))
            src = _named(complexes, _need(m, "source", mpath), f"{mpath}.source")
            tgt = _named(complexes, _need(m, "target", mpath), f"{mpath}.target")
            mats = {k: _matrix(rng, v, kpath, memo) for k, v, kpath
                    in _by_degree(m.get("matrices", {}), f"{mpath}.matrices")}
            try:
                step_map = ChainMap(src, tgt, mats)
            except InputDataError as exc:
                raise JobFileError(f"invalid chain map at {mpath}: {exc}") from exc
        steps.append(WitnessStep(step_map, target, summands))
    claimed = _int(_need(d, "claimed_time", path), f"{path}.claimed_time")
    w = GenerationWitness(gens, steps, claimed, diagonal,
                          conclusion=_str(d.get("conclusion", ""), f"{path}.conclusion"))
    try:
        check_declarations(w, path)
    except InputDataError as exc:
        raise JobFileError(str(exc)) from exc
    return w


def parse_job(doc: dict) -> Job:
    if not isinstance(doc, dict):
        raise JobFileError("job file must be a JSON object")
    _fields(doc, "$", ("schema", "name", "ring", "complexes", "diagonal", "expectation",
                       "witness", "module"))
    if _typed(doc.get("schema"), int, "an integer", "schema") != SCHEMA:
        raise JobFileError(f"unsupported schema {doc.get('schema')!r}, expected {SCHEMA}")
    rng = parse_ring(_need(doc, "ring", "$"))
    memo = {}  # entry string -> Polynomial, shared by every matrix and list below
    complexes = {}
    for i, cd in enumerate(_list(doc.get("complexes", []), "complexes")):
        path = f"complexes[{i}]"
        name = _str(_obj(cd, path).get("name", f"complex{i}"), f"{path}.name")
        if name in complexes:
            where = f"{path}.name" if "name" in cd else path
            raise JobFileError(f"repeated complex name {name!r} at {where}")
        complexes[name] = parse_complex(cd, rng, path, memo)
    expectation = doc.get("expectation", "qiso_to_diagonal")
    if expectation not in ("qiso_to_diagonal", "exact_everywhere"):
        raise JobFileError(f"unknown expectation {expectation!r}")
    diagonal = diag_name = diag_cx = None
    if "diagonal" in doc:
        diagonal = parse_diagonal(doc["diagonal"], rng, memo=memo)
        diag_name = doc["diagonal"].get("complex")
        if diag_name is not None:
            diag_cx = _named(complexes, diag_name, "diagonal.complex")
    witness = None
    if "witness" in doc:
        witness = parse_witness(doc["witness"], rng, complexes, diagonal, memo=memo)
        if diag_cx is not None and witness.steps[-1].target is not diag_cx:
            raise JobFileError(f"diagonal.complex {diag_name!r} is not the final "
                               f"complex witness.steps[{len(witness.steps) - 1}].target")
    gb_module = None
    if "module" in doc:
        md = _fields(doc["module"], "module", ("rank", "generators"))
        rank = _int(_need(md, "rank", "module"), "module.rank")
        if rank < 1:
            raise JobFileError(f"module.rank must be at least 1, got {rank}")
        if rank > MAX_RANK:
            raise JobFileError(f"rank {rank} above the maximum {MAX_RANK} at module.rank")
        gens = []
        for k, row in enumerate(_list(md.get("generators", []), "module.generators")):
            gpath = f"module.generators[{k}]"
            vec = _polys(rng, row, gpath, memo)
            if len(vec) != rank:
                raise JobFileError(f"{gpath} has length {len(vec)}, want {rank}")
            gens.append(tuple(vec))
        gb_module = {"rank": rank, "generators": gens}
    return Job(name=_str(doc.get("name", "job"), "name"), ring=rng, complexes=complexes,
               expectation=expectation, diagonal=diagonal,
               diagonal_complex=diag_name, witness=witness,
               gb_module=gb_module)


class _RepeatedKey(dict):
    """A JSON object that repeats the key `repeated` (json.load would keep its
    last value silently); load_job reports it with its path."""

    def __init__(self, obj: dict, repeated: str):
        super().__init__(obj)
        self.repeated = repeated


def _repeated_key_error(doc) -> JobFileError:
    """The error naming the first object, in document order, that repeats a key."""
    stack = [(doc, "$")]
    while stack:
        node, path = stack.pop()
        if isinstance(node, _RepeatedKey):
            return JobFileError(f"repeated key {node.repeated!r} at {path}")
        if isinstance(node, dict):
            prefix = "" if path == "$" else f"{path}."
            stack.extend((v, f"{prefix}{k}") for k, v in reversed(node.items()))
        elif isinstance(node, list):
            stack.extend((v, f"{path}[{i}]") for i, v in reversed(list(enumerate(node))))
    raise AssertionError("no object repeats a key")


def load_job(path: str, field: Optional[str] = None) -> Job:
    """Read and parse a job file; a field spec, if given, replaces ring.field.

    The document is walked for a path only when an object repeated a key."""
    repeats = []

    def unique_keys(pairs: list) -> dict:
        d = dict(pairs)
        if len(d) < len(pairs):
            counts = Counter(k for k, _ in pairs)
            repeats.append(d := _RepeatedKey(d, max(counts, key=counts.get)))
        return d

    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, object_pairs_hook=unique_keys)
        except ValueError as exc:  # JSONDecodeError, or an int literal past the digit limit
            raise JobFileError(f"not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise JobFileError("job file nested too deeply at $") from exc
    if repeats:
        raise _repeated_key_error(doc)
    if field is not None and isinstance(doc, dict) and isinstance(doc.get("ring"), dict):
        doc["ring"]["field"] = field
    return parse_job(doc)


# ---------------------------------------------------------------------------
# export (catalog entries -> job documents)


def ring_to_dict(rng: QuotientRing) -> dict:
    d = {"variables": list(rng.names), "field": field_spec_str(rng.field),
         "relations": [str(r) for r in rng.relations]}
    if rng.order.kind != "grevlex" or rng.order.priority is not None:
        od = {"kind": rng.order.kind}
        if rng.order.priority is not None:
            od["priority"] = list(rng.order.priority)
        d["order"] = od
    return d


def complex_to_dict(cx: ChainComplex, name: str) -> dict:
    return {
        "name": name,
        "ranks": {str(i): cx.rank(i) for i in cx.degrees()},
        "differentials": {str(i): mat_to_strings(m) for i, m in sorted(cx.diffs.items())},
    }


def diagonal_to_dict(spec: DiagonalSpec, complex_name: str) -> dict:
    d = {"complex": complex_name,
         "ideal": [str(p) for p in spec.ideal],
         "degree": spec.degree,
         "augmentation": [str(p) for p in spec.augmentation]}
    if spec.window is not None:
        d["window"] = list(spec.window)
    return d


def job_document(name: str, rng: QuotientRing, cx: ChainComplex,
                 diagonal: Optional[DiagonalSpec],
                 expectation: str = "qiso_to_diagonal") -> dict:
    doc = {
        "schema": SCHEMA,
        "name": name,
        "ring": ring_to_dict(rng),
        "complexes": [complex_to_dict(cx, "total")],
        "expectation": expectation,
    }
    if diagonal is not None:
        doc["diagonal"] = diagonal_to_dict(diagonal, "total")
    return doc


def emit_job(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)
