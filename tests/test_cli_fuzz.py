"""Seeded mutation of the golden CLI corpus: each run takes a corpus entry,
mutates one of its input files (the JSON tree or the raw bytes) or one of
its vector or integer options, and replays it through ``cli.run`` in
process.  Every mutated command must end with exit 0, 1 or 2 and JSON on
stdout (PASS and FAIL lines for ``verify``): malformed input is a parse or
precondition failure, never an internal error (exit 3) or a traceback.
Root-system files made from the built-ins by mutations that keep the
schema are either refused when the system is read or are root systems
that meet the theorems of the Weyl layer."""

import copy
import json
import random
from fractions import Fraction
from pathlib import Path

from laurcalc import BUILTIN_NAMES, builtin_system
from laurcalc import io as lio
from laurcalc.cli import run

from _support import check_weyl_theorems

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "perfbench" / "corpus"
# the entries with JSON on stdout; the argparse failures print nothing there
ENTRIES = [e for e in json.loads((CORPUS / "entries.json").read_text()) if e.get("stdout", "-") != ""]
SEED = 20231019
RUNS = 2000
BYTE_RUNS = 600

# what a scalar, a list or an object of a corpus file may turn into
_VALUES = [0, 1, -1, 2, 3, "0/1", "1/2", "-3/4", "i", "1 + i", "x", "1/0", "", None, True, [], {}, [0], ["1/1"], [[]]]
# what one component of a vector option may turn into
_COMPONENTS = ["0", "1", "-1", "2/3", "i", "1-i", "x", "1/0", "", "1e3"]
# the options that hold lists of simple-root, hyperplane or order indices
_INT_OPTIONS = {"--deltaQ", "--deltaP", "--hyperplanes", "--d"}
# the options argparse reads as an int; they get small ints only, since
# argparse refuses anything else with exit 1 and no JSON
_ARGPARSE_INTS = {"--index", "--order"}


def _paths(node, path=()):
    """Every position in a JSON tree, as the path of keys leading to it."""
    yield path
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _paths(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _paths(v, path + (i,))


def _mutate_doc(doc, rnd):
    """doc with one position replaced, dropped, duplicated or emptied."""
    doc = copy.deepcopy(doc)
    path = rnd.choice(list(_paths(doc))[1:] or [()])
    if not path:
        return rnd.choice(_VALUES)
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    key, node = path[-1], parent[path[-1]]
    kind = rnd.randrange(5)
    if kind == 0:
        parent[key] = copy.deepcopy(rnd.choice(_VALUES))
    elif kind == 1:
        del parent[key]
    elif kind == 2 and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(node))
    elif kind == 3 and isinstance(node, list):
        parent[key] = node[: rnd.randrange(len(node) + 1)] + [copy.deepcopy(rnd.choice(_VALUES))] * rnd.randrange(2)
    elif isinstance(node, int) and not isinstance(node, bool):
        parent[key] = node + rnd.choice([-2, -1, 1, 2])
    else:
        parent[key] = copy.deepcopy(rnd.choice(_VALUES))
    return doc


def _mutate_vector(text, rnd):
    """A vector option (components split by commas, vectors by semicolons)
    with one component changed, dropped or added."""
    vectors = [v.split(",") for v in text.split(";")]
    v = rnd.choice(vectors)
    i = rnd.randrange(len(v))
    kind = rnd.randrange(3)
    if kind == 0:
        v[i] = rnd.choice(_COMPONENTS)
    elif kind == 1 and len(v) > 1:
        del v[i]
    else:
        v.insert(i, rnd.choice(_COMPONENTS))
    return ";".join(",".join(v) for v in vectors)


def _mutate_ints(rnd):
    return ",".join(str(rnd.randrange(-1, 5)) for _ in range(rnd.randrange(4)))


def _mutate_bytes(data, rnd):
    """data with one bit flipped, cut short, or a 0xff byte inserted."""
    i = rnd.randrange(len(data))
    kind = rnd.randrange(3)
    if kind == 0:
        return data[:i] + bytes([data[i] ^ 1 << rnd.randrange(8)]) + data[i + 1 :]
    if kind == 1:
        return data[:i]
    return data[:i] + b"\xff" + data[i:]


def _mutated_argv(entry, rnd, tmp_path, k):
    """The entry's argv with one input file or one option value mutated."""
    argv = list(entry["argv"])
    slots = [i for i in range(2, len(argv)) if argv[i - 1].startswith("--") and not argv[i].startswith("--")]
    if not slots:
        return argv + ["--suite", rnd.choice(["all", "weyl-orders", "weyl-orders,j-map-cocycle", "nothing", ""])]
    i = rnd.choice(slots)
    option, value = argv[i - 1], argv[i]
    if value.endswith(".json"):
        try:
            doc = json.loads((ROOT / value).read_text())
        except (OSError, ValueError):
            return argv  # a missing or malformed file stays as it is
        for _ in range(rnd.choice((1, 1, 2))):
            doc = _mutate_doc(doc, rnd)
        path = tmp_path / f"{k}.json"
        path.write_text(json.dumps(doc))
        value = str(path)
    elif option in _ARGPARSE_INTS:
        value = str(rnd.randrange(-2, 8))
    elif option in _INT_OPTIONS:
        value = _mutate_ints(rnd)
    elif option not in ("--system", "--suite"):
        value = _mutate_vector(value, rnd)
    else:
        value = rnd.choice(["A1", "A1xA1", "B2", "G2", "a2", "E8", ""])
    # joined with "=", so that argparse does not read a value such as -1 as an option
    argv[i - 1 : i + 1] = [f"{option}={value}"]
    return argv


def _shaped(verb, code, out):
    """Whether stdout is one JSON object, or PASS and FAIL lines from a
    ``verify`` run that got past its options."""
    if verb == "verify" and code != 1:
        return bool(out) and all(line.split(" ")[0] in ("PASS", "FAIL") for line in out.splitlines())
    try:
        return isinstance(json.loads(out), dict)
    except ValueError:
        return False


def test_mutated_corpus_never_ends_in_an_internal_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    rnd = random.Random(SEED)
    bad = []
    for k in range(RUNS):
        argv = _mutated_argv(rnd.choice(ENTRIES), rnd, tmp_path, k)
        code = run(argv)
        out = capsys.readouterr().out
        if code not in (0, 1, 2) or not _shaped(argv[0], code, out):
            mutated = tmp_path / f"{k}.json"
            bad.append((argv, code, out.strip(), mutated.read_text() if mutated.exists() else None))
    assert not bad, f"{len(bad)} of {RUNS} mutated commands failed; the first: {bad[:3]}"


def test_byte_mutated_input_file_is_a_parse_failure_when_it_is_not_json(tmp_path, monkeypatch, capsys):
    """The bytes of one input file mutated: every run ends with exit 0, 1 or
    2 and JSON on stdout, and a file that json.loads no longer reads (bad
    UTF-8, cut short, a stray byte) is a parse failure, exit 1."""
    monkeypatch.chdir(ROOT)
    rnd = random.Random(SEED)
    files = [(e["argv"], i) for e in ENTRIES for i, a in enumerate(e["argv"]) if (ROOT / a).is_file()]
    bad, unreadable = [], 0
    for k in range(BYTE_RUNS):
        argv, i = rnd.choice(files)
        argv = list(argv)
        data = _mutate_bytes((ROOT / argv[i]).read_bytes(), rnd)
        argv[i] = str(tmp_path / f"{k}.json")
        Path(argv[i]).write_bytes(data)
        code = run(argv)
        out = capsys.readouterr().out
        try:
            json.loads(data)
        except ValueError:
            unreadable += 1
            ok = code == 1 and json.loads(out)["error"] == "parse"
        else:
            ok = code in (0, 1, 2) and _shaped(argv[0], code, out)
        if not ok:
            bad.append((argv, code, out.strip(), data))
    assert unreadable > BYTE_RUNS // 4
    assert not bad, f"{len(bad)} of {BYTE_RUNS} byte-mutated commands failed; the first: {bad[:3]}"


# the mutations of a root-system document; the last three need its simple roots
_SYSTEM_MUTATIONS = ("drop-root", "flip-positive", "perturb-gram", "scale-simple", "sum-simple", "derive-simple")


def _mutate_system(doc, rnd):
    """A root-system document with one of its roots dropped, a positive
    index flipped to the negative root, a simple root scaled or replaced by
    a sum of roots, an inner-product entry perturbed, or its simple roots
    left for the reader to derive; returns the kind and the document."""
    doc = copy.deepcopy(doc)
    roots, positive, simple, gram = doc["roots"], doc["positive"], doc.get("simple"), doc["inner_product"]
    kind = rnd.choice(_SYSTEM_MUTATIONS if simple else _SYSTEM_MUTATIONS[:3])
    if kind == "drop-root":
        i = rnd.randrange(len(roots))
        del roots[i]
        doc["positive"] = [k - (k > i) for k in positive if k != i]
    elif kind == "flip-positive":
        k = rnd.randrange(len(positive))
        minus = [-Fraction(x) for x in roots[positive[k]]]
        positive[k] = next((i for i, r in enumerate(roots) if list(map(Fraction, r)) == minus), positive[k])
    elif kind == "scale-simple":
        k = rnd.randrange(len(simple))
        simple[k] = [str(Fraction(x) * rnd.choice((2, -1, Fraction(1, 2)))) for x in simple[k]]
    elif kind == "sum-simple":
        k = rnd.randrange(len(simple))
        simple[k] = [str(Fraction(a) + Fraction(b)) for a, b in zip(simple[k], roots[rnd.choice(positive)])]
    elif kind == "perturb-gram":
        i, j = rnd.randrange(len(gram)), rnd.randrange(len(gram))
        delta = rnd.choice((-1, 1, Fraction(-1, 2), Fraction(1, 2)))
        for a, b in {(i, j), (j, i)} if rnd.random() < 0.8 else {(i, j)}:
            gram[a][b] = str(Fraction(gram[a][b]) + delta)
    else:
        del doc["simple"]
    return kind, doc


def test_mutated_system_file_is_refused_or_is_a_root_system(tmp_path, capsys):
    """A mutated built-in that the reader refuses ends in exit 1 or 2 with
    its error as JSON; one it accepts is a root system, by the theorems,
    which are proved once for each system accepted."""
    rnd = random.Random(SEED)
    docs = {name: lio.rootsystem_to_json(builtin_system(name)) for name in BUILTIN_NAMES}
    seen, proved = set(), set()
    for k in range(150):
        name = rnd.choice(BUILTIN_NAMES)
        kind, doc = _mutate_system(docs[name], rnd)
        if rnd.random() < 0.3:
            doc = _mutate_system(doc, rnd)[1]
        path = tmp_path / f"{k}.json"
        path.write_text(json.dumps(doc))
        code = run(["rootsys", "cosets", "--system-file", str(path), "--deltaQ=0"])
        out = json.loads(capsys.readouterr().out)
        try:
            rs = lio.rootsystem_from_json(doc)
        except (ValueError, lio.ParseFailure):
            assert code in (1, 2) and out["error"] in ("parse", "precondition"), (name, kind, doc, out)
            seen.add((kind, "refused"))
        else:
            assert code == 0 and out["W"] == len(rs.weyl_group()), (name, kind, doc, out)
            key = json.dumps(lio.rootsystem_to_json(rs))
            if key not in proved:
                check_weyl_theorems(rs)
                proved.add(key)
            seen.add((kind, "accepted"))
    assert {kind for kind, _ in seen} == set(_SYSTEM_MUTATIONS)
    assert {outcome for _, outcome in seen} == {"refused", "accepted"}
