"""Layout of the package: only the command line turns data into JSON text.

Library modules return data (``to_json_dict``, ``to_rows``); ``cli.py`` alone
decides how it is written, so a second JSON renderer fails here. Imports sit
at the top of a module and each is read there; the one lazy import and the
one unread import left are pinned by name. The
legality pass is the one source of architecture facts: outside ``schedule.py``
the 2-parallel architecture is named only where its schedule is built and
checked, or to choose which checked schedule to read, and no count is derived
from the name; the cost model reads its PE pool, IGC count and latency off the
checked schedule, and only that pass builds an activity table. A trial's
random stream has one definition, ``channel.trial_rng``; the sweeps' seeding
pass that recomputes a chunk's states is called from the channel draw alone.
An array from the caller has one check, ``code.require_array``, and an LLR
has one saturation helper, ``llr.clamp``. The SSC walk's buffers are
allocated where its steps are bound to them, never in its step loop, and
its one loop runs the bound steps, the root's included, unpatched. A
simulator run is one dataflow call, and outside ``llr.py`` only
``archsim.divergence`` names the equivalence reference and its genie screen.
``cli.main`` only dispatches: each flag is read by the subcommand that uses it.
Every public name has a reader outside the tests.
"""

import ast
import re
from pathlib import Path

import numpy as np

import polarsc
from polarsc import llr

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "polarsc"


def _trees():
    return {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


def test_only_cli_imports_json():
    importers = set()
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "json" for m in modules):
                importers.add(name)
    assert importers == {"cli.py"}


def test_no_class_defines_to_json():
    found = [
        f"{name}:{cls.name}"
        for name, tree in _trees().items()
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and item.name == "to_json"
    ]
    assert found == []


def test_function_level_imports():
    # ber_sweep reaches the simulator lazily because archsim imports channel;
    # that import goes once the campaigns share a module
    found = {
        (name, func.name)
        for name, tree in _trees().items()
        for func in ast.walk(tree) if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func) if isinstance(node, (ast.Import, ast.ImportFrom))
    }
    assert found == {("channel.py", "ber_sweep")}


def test_no_unused_imports():
    # a module-level import that nothing in its module reads is dead code;
    # channel keeps sc_decode_batch only because perfbench/spans.py patches
    # that name there, until the campaigns share one module
    unused = set()
    for name, tree in _trees().items():
        bound = {
            alias.asname or alias.name.split(".")[0]
            for stmt in tree.body
            if isinstance(stmt, (ast.Import, ast.ImportFrom))
            and getattr(stmt, "module", None) != "__future__"
            for alias in stmt.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        read |= {  # re-exports named in __all__
            elt.value
            for stmt in tree.body
            if isinstance(stmt, ast.Assign) and getattr(stmt.targets[0], "id", None) == "__all__"
            for elt in stmt.value.elts
        }
        unused |= {(name, b) for b in bound - read}
    assert unused == {("channel.py", "sc_decode_batch")}


def _owners(tree):
    """node -> name of the top-level def, class or assignment that holds it"""
    owner = {}
    for stmt in tree.body:
        name = getattr(stmt, "name", None)
        if isinstance(stmt, ast.Assign):
            name = getattr(stmt.targets[0], "id", None)
        owner.update((node, name) for node in ast.walk(stmt))
    return owner


def test_parallel2_is_read_only_where_the_schedule_is_built():
    # outside schedule.py, PARALLEL2 is read only where the schedule is built
    # and checked, or to choose which checked schedule to read
    readers = set()
    for name, tree in _trees().items():
        owner = _owners(tree)
        readers |= {
            (name, owner.get(node))
            for node in ast.walk(tree)
            if "PARALLEL2" in (getattr(node, "id", None), getattr(node, "attr", None))
        }
    assert {r for r in readers if r[0] != "schedule.py"} == {
        ("archsim.py", "_build_schedule"), ("archsim.py", "check_schedule"),
        ("archsim.py", "parallel_activity_table"), ("cost.py", "_DESIGNS")}


def test_architecture_facts_come_from_the_checked_schedule():
    # the line reference has no IGC, so its count may stay the literal 0
    seen = set()
    for node in ast.walk(_trees()["cost.py"]):
        if isinstance(node, ast.keyword) and node.arg in ("n_pes", "n_igcs", "latency"):
            seen.add(node.arg)
            value = node.value
            assert not isinstance(value, (ast.BinOp, ast.UnaryOp)), ast.unparse(node)
            if isinstance(value, ast.Constant):
                assert node.arg == "n_igcs" and value.value == 0, ast.unparse(node)
    assert seen == {"n_pes", "n_igcs", "latency"}
    constructors = {
        (name, owner.get(node))
        for name, tree in _trees().items()
        for owner in [_owners(tree)]
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and "ActivityTable" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))
    }
    assert constructors == {("archsim.py", "check_schedule")}


def _readers(names):
    """(file, top-level owner) of every node in src/ that names one of ``names``"""
    return {
        (name, owner.get(node))
        for name, tree in _trees().items()
        for owner in [_owners(tree)]
        for node in ast.walk(tree)
        if {getattr(node, "id", None), getattr(node, "attr", None)} & set(names)
    }


def test_trial_streams_have_one_definition():
    # trial_rng alone builds a stream; the chunk's seeding pass only
    # recomputes its states, and _draw checks them against trial_rng
    assert _readers(["SeedSequence", "default_rng"]) == {("channel.py", "trial_rng")}
    assert _readers(["_trial_states"]) == {("channel.py", "_draw")}


def test_unchecked_words_have_two_readers():
    # WordQ's range check is skipped only for values read off q planes and
    # for the simulator's words, which come from its checked input; no
    # outside value reaches the unchecked constructor
    assert _readers(["_unchecked_word"]) == {
        ("gates.py", "_words"), ("archsim.py", "_level_pass")}


def test_one_dataflow_call_and_one_reference_reader():
    # run decides all its frames in one _dataflow call, made by _run, which
    # ber_sweep calls directly to hand over its first guess; the campaign and
    # the CLI's single run reach the reference decoder through divergence
    assert _readers(["_dataflow"]) == {("archsim.py", "_run")}
    assert _readers(["_run"]) == {("archsim.py", "run"), ("channel.py", "ber_sweep")}
    assert {r for r in _readers(["sc_decode_batch"]) if r[0] != "llr.py"} == {
        ("archsim.py", "divergence")}


def test_genie_pass_has_one_reader_and_llr_no_full_sc_plan():
    # the campaign's screen reads SC's decision LLRs off the run's decisions
    # level by level, so llr keeps no tree of single-bit leaves: the SSC
    # plan's node kinds are Rate-0, Rate-1 and split
    assert _readers(["_genie_llrs"]) == {("archsim.py", "divergence")}
    tree = _trees()["llr.py"]
    kinds = [
        elt.id
        for stmt in tree.body
        if isinstance(stmt, ast.Assign) and isinstance(stmt.targets[0], ast.Tuple)
        and isinstance(stmt.value, ast.Call) and getattr(stmt.value.func, "id", None) == "range"
        for elt in stmt.targets[0].elts
    ]
    assert kinds == ["_RATE0", "_RATE1", "_SPLIT"]
    node = next(f for f in tree.body if getattr(f, "name", None) == "_ssc_node")
    constants = {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and n.id.isupper()}
    assert {"_RATE0", "_SPLIT"} <= constants <= set(kinds)
    assert "_sc_plan" not in {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)}


def test_ssc_buffers_allocated_only_where_bound():
    # the SSC walk runs on buffers bound once per code and batch shape: they
    # are allocated in _ssc_bind, and neither the walk's step loop nor any
    # function of llr that the walk names (its kernels) makes an array; the
    # walk's one copy, after the loop, is the fresh u_hat it returns.
    # quantize allocates its result and its block buffers, outside the walk
    funcs = {f.name: f for f in _trees()["llr.py"].body if isinstance(f, ast.FunctionDef)}
    makers = {"empty", "zeros", "ones", "full",
              "empty_like", "zeros_like", "ones_like", "full_like"}
    copies = makers | {"array", "copy", "astype", "concatenate", "stack", "where",
                       "ascontiguousarray"}

    def calls(node, names):
        return [ast.unparse(n) for n in ast.walk(node) if isinstance(n, ast.Call)
                and (getattr(n.func, "attr", None) or getattr(n.func, "id", None)) in names]

    assert {name for name, f in funcs.items() if calls(f, makers)} == {
        "_ssc_bind", "_sc_decode", "lr_recursion_prob", "quantize"}
    walk = funcs["_ssc_wires"]
    assert calls(walk, copies) == ["psums[None].copy()"]
    loops = [n for n in ast.walk(walk) if isinstance(n, ast.For)]
    assert loops and all(calls(loop, copies) == [] for loop in loops)
    named = {n.id for n in ast.walk(walk) if isinstance(n, ast.Name)} & set(funcs)
    assert {"_ssc_f_exact", "_ssc_f_minsum", "_ssc_f_minsum_q", "_ssc_g"} <= named
    assert {name: calls(funcs[name], copies) for name in named} == {name: [] for name in named}


def test_ssc_steps_are_bound_once_with_their_root():
    # every step of the SSC walk, the root's among them, is bound by
    # _ssc_bind: the walk has one loop, over the steps _ssc_binding returns,
    # and builds or patches no step list, and no binding holds a placeholder
    walk = next(f for f in _trees()["llr.py"].body
                if isinstance(f, ast.FunctionDef) and f.name == "_ssc_wires")
    loops = [n for n in ast.walk(walk) if isinstance(n, (ast.For, ast.While, ast.comprehension))]
    assert [ast.unparse(loop.iter) for loop in loops] == ["steps"]
    stores = [n for n in ast.walk(walk) if isinstance(n, ast.Assign)
              if any(isinstance(t, ast.Name) and t.id == "steps" for t in ast.walk(n.targets[0]))]
    assert [ast.unparse(n.value.func) for n in stores] == ["_ssc_binding"]
    assert not [n for n in ast.walk(walk)
                if isinstance(n, ast.Subscript) and isinstance(n.ctx, ast.Store)]
    # a kept binding (16 x 4 int8) and one bound for its walk (1024 x 128 float64)
    for n, frames, dtype in ((16, 4, np.int8), (1024, 128, np.float64)):
        spec = polarsc.make_code_spec(n, n // 2)
        steps, _, _ = llr._ssc_binding(spec, np.zeros((n, frames), dtype))
        assert steps and all(isinstance(step, tuple) and len(step) == 2 for step in steps)


def test_outside_arrays_have_one_check():
    # require_array alone turns an argument into an array; the combine
    # primitives take arrays the oracle has already checked
    calls = {
        (name, owner.get(node), ast.unparse(node))
        for name, tree in _trees().items()
        for owner in [_owners(tree)]
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) in ("asarray", "asanyarray")
    }
    assert calls == {
        ("code.py", "require_array", "np.asarray(value)"),
        ("llr.py", "f_minsum", "np.asarray(a)"),
        ("llr.py", "f_minsum", "np.asarray(b)"),
        ("llr.py", "f_exact", "np.asarray(a, dtype=float)"),
        ("llr.py", "f_exact", "np.asarray(b, dtype=float)"),
        ("llr.py", "g_update", "np.asarray(a)"),
        ("llr.py", "g_update", "np.asarray(b)"),
        ("llr.py", "g_update", "np.asarray(u_sel)"),
    }


def test_one_saturation_helper():
    # every two-sided clip is llr.clamp: the clip ufunc is named inside it
    # alone, no minimum of a maximum (or the reverse) clips a value by hand,
    # and each saturating step calls it; f_exact's floor min(lo, tiny) is one-sided
    assert _readers(["clip"]) == {("llr.py", "clamp")}
    pairs = [
        (name, ast.unparse(node))
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Call)
        and {getattr(node.func, "attr", None), getattr(node.args[0].func, "attr", None)}
        == {"minimum", "maximum"}
    ]
    assert pairs == []
    callers = {
        (name, owner.get(node))
        for name, tree in _trees().items()
        for owner in [_owners(tree)]
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "clamp"
    }
    assert callers == {("llr.py", "_ssc_g"), ("llr.py", "g_update"), ("llr.py", "_checked_input"),
                       ("archsim.py", "_level_pass"), ("channel.py", "_draw")}


def test_cli_main_reads_no_flag():
    # a default or a parse done in main would be a second reader of a flag
    main = next(node for node in _trees()["cli.py"].body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    read = {node.attr for node in ast.walk(main)
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "args"}
    read |= {node.args[1].value for node in ast.walk(main)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("getattr", "hasattr")
             and getattr(node.args[0], "id", None) == "args"}
    assert read == {"func"}


def test_every_export_has_a_non_test_reader():
    # a name that only tests read is API that every refactor has to carry
    files = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    read = set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            read.add(getattr(node, "id", None) if isinstance(node, ast.Name)
                     else getattr(node, "attr", None))
    assert sorted(set(polarsc.__all__) - read) == []
