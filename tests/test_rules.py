"""Code rules checked on the syntax tree: no module imports another module's
leading-underscore name, no library module but the CLI prints, only the
transform and growth modules name SpatialStep, one ledger pass evaluates
the symbols, only the ledger pass starts threads, no generator or event
crosses a thread of the ledger pass, every verify row reads its
member's one Ledgers build, no caller sees the pass's stacks, every
JSON read catches RecursionError, one helper estimates every limit, by the
stack, every library name the bench looks up exists, the ledgers and the
carve never build a family's members, the ledger layer takes a family only,
the carve is one block loop with one symbol call and no point cache, the
Parseval row is one moment sum of a real block in a loop that makes no
spatial step, a p = 2 pass builds no step, neither the spatial step's pass
choice nor the ledger pass's split or d = 1 chunk has a knob, a subcommand
registers only the overrides its handler reads, a builtin input is one
SampledFunction, and only the readers of every grid point build the grid's
full coordinate array."""

import ast
import importlib
import itertools
import pathlib

ROOT = pathlib.Path(__file__).parents[1]
LIBRARY = sorted((ROOT / "src" / "realpw").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def nodes(path):
    return ast.walk(ast.parse(path.read_text(), filename=str(path)))


def called(node):
    """The name a call node calls, bare or as an attribute."""
    return getattr(node.func, "id", None) or getattr(node.func, "attr", None)


def test_no_private_name_is_imported():
    private = [f"{path.name}:{node.lineno} {alias.name}"
               for path in LIBRARY + TESTS for node in nodes(path)
               if isinstance(node, ast.ImportFrom)
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_only_the_cli_prints():
    prints = [f"{path.name}:{node.lineno}"
              for path in LIBRARY if path.name != "cli.py" for node in nodes(path)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "print"]
    assert prints == []


def test_one_spatial_loop():
    # every spatial norm of the iterates comes from growth.spatial_norms, so
    # no second per-n inverse-transform loop grows elsewhere
    named = [f"{path.name}:{node.lineno}"
             for path in LIBRARY if path.name not in ("transform.py", "growth.py")
             for node in nodes(path)
             if "SpatialStep" in (getattr(node, "id", None), getattr(node, "attr", None),
                                  getattr(node, "name", None))]
    assert named == []


def test_one_ledger_pass():
    # every ledger, p = 2 too, comes from growth.spatial_norms, so each
    # member's symbol is evaluated once per pass and no second iteration
    # loop grows beside it; apply_op_spectral steps one row to its last
    # iterate
    callers = []
    for path in LIBRARY:
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {id(node): getattr(top, "name", None)
                 for top in tree.body for node in ast.walk(top)}
        callers += [f"{path.name} {owner[id(node)]}" for node in ast.walk(tree)
                    if isinstance(node, ast.Call) and called(node) == "symbol_ratios"]
    assert sorted(callers) == ["growth.py apply_op_spectral", "growth.py spatial_norms"]


def test_only_the_ledger_pass_starts_threads():
    # verify's 2-thread fan-out lost to one thread on a 2-vCPU VM (BLAS at
    # one thread, `realpw verify` in-process, 20 alternating pairs): 0.0655 s
    # against 0.0620 s median, 2 threads faster in 4 of 20, the same matrix.
    # Threads came back where a workload showed a gain: spatial_norms splits
    # each member's n-range across one helper thread on large grids, and
    # estimate-corpus `wall_s` fell 10-14% at seed 0 and 13-20% at seed 6,
    # 9 or 10 of 10 alternating pairs won in each of three rounds
    # (BENCH_27.json).  No other module imports threading or concurrent, and
    # in growth.py only spatial_norms names what they bind
    # (tests/test_growth.py checks that no thread outlives a call)
    def modules(node):
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        return [node.module or ""] if isinstance(node, ast.ImportFrom) else []

    imports = {path.name for path in LIBRARY for node in nodes(path) for name in modules(node)
               if name.split(".")[0] in ("threading", "concurrent")}
    assert imports == {"growth.py"}
    path = ROOT / "src" / "realpw" / "growth.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {alias.asname or alias.name.split(".")[0] if isinstance(node, ast.Import)
             else alias.asname or alias.name
             for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
             and any(name.split(".")[0] in ("threading", "concurrent") for name in modules(node))
             for alias in node.names}
    owner = {id(node): getattr(top, "name", None) for top in tree.body for node in ast.walk(top)}
    users = {owner[id(node)] for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id in bound}
    assert bound and users == {"spatial_norms"}


def test_no_generator_or_event_crosses_a_thread():
    # each half of a member is one array of its values, which one rule
    # cuts: growth.py imports neither threading nor itertools, _values
    # holds no yield, and no function of growth.py names an Event, so no
    # generator is built in one thread and drained or stopped from another
    path = ROOT / "src" / "realpw" / "growth.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    imports = {name.split(".")[0] for node in ast.walk(tree) for name in (
        [alias.name for alias in node.names] if isinstance(node, ast.Import)
        else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])}
    assert not imports & {"threading", "itertools"}
    (values,) = [node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_values"]
    assert not [node for node in ast.walk(values) if isinstance(node, (ast.Yield, ast.YieldFrom))]
    events = [f"growth.py:{node.lineno}" for fn in ast.walk(tree)
              if isinstance(fn, (ast.FunctionDef, ast.Lambda)) for node in ast.walk(fn)
              if "Event" in (getattr(node, "id", None), getattr(node, "attr", None))]
    assert events == []


def test_verify_rows_read_the_ledgers():
    # only Ledgers.of runs a ledger pass in verify, so each member's spectrum
    # is stepped and each symbol evaluated once for every row of the matrix
    path = ROOT / "src" / "realpw" / "verify.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    of = [node for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name == "Ledgers"
          for node in cls.body if isinstance(node, ast.FunctionDef) and node.name == "of"]
    inside_of = {id(node) for node in ast.walk(of[0])} if of else set()
    passes = [f"verify.py:{node.lineno} {called(node)}" for node in ast.walk(tree)
              if isinstance(node, ast.Call) and id(node) not in inside_of
              and called(node) in ("spatial_norms", "growth_sequences", "symbol_ratios")]
    named = [f"verify.py:{node.lineno}" for node in ast.walk(tree)
             if "compute_R" in (getattr(node, "id", None), getattr(node, "attr", None),
                                getattr(node, "name", None))]
    assert len(of) == 1
    assert (passes, named) == ([], [])


def test_no_caller_sees_a_stack():
    # the ledger pass returns one (R, two, rows) per member, in family
    # order: its symbol stacks are a memory bound inside growth.py.  The
    # pass, growth_sequences and GrowthSequence.from_rows return lists, not
    # generators; the pass starts its one helper pool outside its stack
    # loop; no library function calls next() on a pass; and Ledgers.of
    # runs one pass per verify member
    def tree(name):
        path = ROOT / "src" / "realpw" / name
        return ast.parse(path.read_text(), filename=str(path))

    def method(module, owner, name):
        scope = module if owner is None else next(
            node for node in module.body if isinstance(node, ast.ClassDef) and node.name == owner)
        (fn,) = [node for node in scope.body
                 if isinstance(node, ast.FunctionDef) and node.name == name]
        return fn

    def in_loop(fn, node):
        return any(node in ast.walk(loop) for loop in ast.walk(fn) if isinstance(
            loop, (ast.For, ast.While, ast.ListComp, ast.GeneratorExp, ast.SetComp, ast.DictComp)))

    growth, verify = tree("growth.py"), tree("verify.py")
    passes = ("spatial_norms", "growth_sequences", "from_rows")
    yields = [f"{name}:{node.lineno}" for owner, name in (
        (None, "spatial_norms"), (None, "growth_sequences"), ("GrowthSequence", "from_rows"))
        for node in ast.walk(method(growth, owner, name))
        if isinstance(node, (ast.Yield, ast.YieldFrom))]
    assert yields == []
    fn = method(growth, None, "spatial_norms")
    pools = [node for node in ast.walk(fn)
             if isinstance(node, ast.Call) and called(node) == "ThreadPoolExecutor"]
    assert pools and not any(in_loop(fn, node) for node in pools)
    nexts = [f"{path.name}:{node.lineno}" for path in LIBRARY for node in nodes(path)
             if isinstance(node, ast.Call) and called(node) == "next"
             and any(isinstance(inner, ast.Call) and called(inner) in passes
                     for arg in node.args for inner in ast.walk(arg))]
    assert nexts == []
    of = method(verify, "Ledgers", "of")
    calls = [node for node in ast.walk(of)
             if isinstance(node, ast.Call) and called(node) == "spatial_norms"]
    assert len(calls) == 1 and not in_loop(of, calls[0])


def test_every_json_read_catches_recursion():
    # json.load raises RecursionError, not ValueError, on deep nesting, and
    # uncaught that is a traceback with exit 1, the code of a failed verify
    def catches_recursion(handler):
        names = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        return any(getattr(name, "id", None) == "RecursionError" for name in names)

    reads, unguarded = 0, []
    for path in LIBRARY:
        tree = ast.parse(path.read_text(), filename=str(path))
        guarded = {id(inner) for node in ast.walk(tree)
                   if isinstance(node, ast.Try) and any(map(catches_recursion, node.handlers))
                   for stmt in node.body for inner in ast.walk(stmt)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and called(node) in ("load", "loads")
                    and getattr(getattr(node.func, "value", None), "id", None) == "json"):
                reads += 1
                if id(node) not in guarded:
                    unguarded.append(f"{path.name}:{node.lineno}")
    assert reads and unguarded == []


def callers_of(name):
    """"<module>:<function>" for each call of name in the library, by the
    innermost function the call sits in."""
    out = []
    for path in LIBRARY:
        scopes = [(ast.parse(path.read_text(), filename=str(path)), "<module>")]
        while scopes:
            scope, owner = scopes.pop()
            todo = list(ast.iter_child_nodes(scope))
            while todo:
                node = todo.pop()
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    scopes.append((node, node.name))
                    continue
                if isinstance(node, ast.Call) and called(node) == name:
                    out.append(f"{path.name}:{owner}")
                todo.extend(ast.iter_child_nodes(node))
    return sorted(out)


def test_limits_are_estimated_by_the_stack():
    # every ledger kind becomes a limit through growth._estimates, which makes
    # one estimate_limits call per ledger length of its stack of ledgers
    # (a whole family's, from growth_sequences); estimate_limit stays for
    # library users, and a ledger builder that called it once per ledger would
    # pay one pass of small-array calls per member, the cost estimate_limits
    # removed from reconstruct
    assert callers_of("estimate_limit") == []
    assert callers_of("estimate_limits") == ["growth.py:_estimates"]


def test_bench_names_resolve():
    # bench/spans.py rebinds each TARGETS key with getattr and bench/workloads.py
    # imports from realpw, so a library name deleted or renamed under them
    # crashes the traced bench run; read both with ast, not by importing them
    def resolves(module, attrs):
        obj = importlib.import_module(module)
        for attr in attrs:
            obj = getattr(obj, attr, None)
        return obj is not None

    spans = ast.parse((ROOT / "bench" / "spans.py").read_text())
    targets = [key.value for node in ast.walk(spans) if isinstance(node, ast.Assign)
               and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)
               for key in node.value.keys]
    imported = [(node.module, alias.name)
                for node in ast.walk(ast.parse((ROOT / "bench" / "workloads.py").read_text()))
                if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "realpw"
                for alias in node.names]
    assert "growth.estimate_limit" in targets and ("realpw", "compute_R") in imported
    missing = [t for t in targets if not resolves(f"realpw.{t.split('.')[0]}", t.split(".")[1:])]
    missing += [f"{m}.{n}" for m, n in imported if not resolves(m, [n])]
    assert missing == []


def test_only_whole_grid_readers_build_every_coordinate():
    # spatial_coords() and frequency_coords() build an (M^d, d) array, 100 MB
    # on a d = 3, M = 128 grid: only the functions that read every point call
    # them.  A guard takes the largest |coordinate| from M and the step, and
    # eval_entire reads its support's coordinates from the support's indices
    readers = {"grid.py:sample_builtin", "growth.py:spatial_norms",
               "reconstruct.py:reconstruct_support", "reconstruct.py:pde_support_probe"}
    callers = set(callers_of("spatial_coords") + callers_of("frequency_coords"))
    assert callers - readers == set()


def test_ledgers_and_carve_read_no_members():
    # a family is one coefficient array: reading its .polys builds every
    # member as a MultiPoly, about 3 ms for the 256 members of
    # reconstruct-twobox, which the ledgers and the carve never need
    reads = [f"{name}:{node.lineno}" for name in ("growth.py", "reconstruct.py")
             for node in nodes(ROOT / "src" / "realpw" / name)
             if isinstance(node, ast.Attribute) and node.attr == "polys"]
    assert reads == []


def test_ledger_layer_takes_a_family_only():
    # symbol_ratios, spatial_norms, growth_sequences and GrowthSequence.from_rows
    # take a PolyFamily, and verify's members hold one: a one-P entry point
    # builds its one-row family once, and nothing branches on the type or
    # converts per call or per row
    def names(node):
        return {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node)}

    tests = [f"{name}:{node.lineno}" for name in ("growth.py", "verify.py")
             for node in nodes(ROOT / "src" / "realpw" / name)
             if isinstance(node, ast.Call) and called(node) == "isinstance"
             and len(node.args) == 2 and names(node.args[1]) & {"MultiPoly", "PolyFamily"}]
    assert tests == []
    converts = [c for c in callers_of("family_explicit") if c.startswith("growth.py")]
    assert converts == [f"growth.py:{name}" for name in sorted(
        ("apply_op_spectral", "growth_sequence", "pointwise_growth", "schwartz_decay_check"))]


def test_one_carve_loop():
    # reconstruct_support carves in one block loop: the first member is the
    # loop's first block, sliced like every block over more than _SLICE
    # cells, and the powers (i lam_j)^e are computed per call, since keeping
    # them across blocks (a SymbolPoints cache) saved about 1% of
    # reconstruct-twobox, under the bench's spread
    path = ROOT / "src" / "realpw" / "reconstruct.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    carve = [node for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name == "reconstruct_support"]
    loops = [loop for loop in ast.walk(carve[0]) if isinstance(loop, (ast.While, ast.For))]
    in_loop = {id(node) for loop in loops for node in ast.walk(loop)}
    calls = [node for node in ast.walk(carve[0])
             if isinstance(node, ast.Call) and called(node) == "eval_symbol_many"]
    assert len(calls) == 1 and id(calls[0]) in in_loop
    named = [f"{module.name}:{getattr(node, 'lineno', '')}" for module in LIBRARY
             for node in nodes(module)
             if "SymbolPoints" in (getattr(node, "id", None), getattr(node, "attr", None),
                                   getattr(node, "name", None))]
    assert named == []


def spatial_norms_tree():
    path = ROOT / "src" / "realpw" / "growth.py"
    (fn,) = [node for node in ast.parse(path.read_text(), filename=str(path)).body
             if isinstance(node, ast.FunctionDef) and node.name == "spatial_norms"]
    return fn


def test_one_parseval_site():
    # the Parseval row is the moment sum sum_j |F_j|^2 t_j^n: spatial_norms
    # multiplies one real block by t in place and sums its rows once per n.
    # |G_n|^2 of the complex iterate block took a hypot per cell and n, 33 of
    # 61 us a step on the 256-member two-box stack
    fn = spatial_norms_tree()
    in_loop = {id(node) for loop in ast.walk(fn) if isinstance(loop, (ast.For, ast.While))
               for node in ast.walk(loop)}
    sums = [id(node) in in_loop for node in ast.walk(fn)
            if isinstance(node, ast.Call) and called(node) == "sum"]
    assert sums == [True]
    squares = [f"{lib.name}:{node.lineno}" for lib in LIBRARY for node in nodes(lib)
               if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
               and isinstance(node.left, ast.Call) and called(node.left) == "abs"
               and getattr(node.right, "value", None) == 2]
    assert squares == []


def test_moment_loop_makes_no_step():
    # the moment loop and the spatial loop are two loops: the loop that holds
    # the one moment sum runs over n on the real block alone, and every
    # spatial step runs in the member-by-member loop beside it, through
    # _values, the one generator of the caller's half and the helper's half,
    # which walks _iterates
    fn = spatial_norms_tree()
    loops = [loop for loop in ast.walk(fn) if isinstance(loop, (ast.For, ast.While))]
    holds = [loop for loop in loops if any(
        isinstance(node, ast.Call) and called(node) == "sum" for node in ast.walk(loop))]
    (moment,) = [loop for loop in holds
                 if not any(inner is not loop and inner in holds for inner in ast.walk(loop))]
    calls = [called(node) for node in ast.walk(moment) if isinstance(node, ast.Call)]
    steps = [node for node in ast.walk(fn)
             if isinstance(node, ast.Call) and called(node) == "_values"]
    assert set(callers_of("step")) == {"growth.py:_iterates"}
    assert callers_of("_iterates") == ["growth.py:_values"]
    assert steps and "sum" in calls and not {"step", "_iterates", "_values"} & set(calls)


def test_p2_pass_steps_no_iterates(monkeypatch):
    # a p = 2 growth_sequences call reads only the moment sums: it builds no
    # SpatialStep, so it steps no complex iterate row; a p = 1 call builds
    # one SpatialStep for its one spatial_norms call, shared by its stacks
    # (one symbol_ratios call each)
    import numpy as np
    from realpw import growth, make_grid, sample_builtin, family_quadratic_real
    grid = make_grid(1, 64, 0.5)
    f = sample_builtin({"kind": "spectral_bump",
                        "support": {"shape": "box", "lo": [-1.0], "hi": [1.0]}}, grid)
    family = family_quadratic_real(np.linspace(-1.0, 1.0, 12)[:, None], grid)
    stacks, built, step, ratios = [], [], growth.SpatialStep, growth.symbol_ratios

    def counting_step(spec):
        built.append(spec)
        return step(spec)

    def counting_ratios(spec, stack):
        stacks.append(len(stack))
        return ratios(spec, stack)

    monkeypatch.setattr(growth, "SpatialStep", counting_step)
    monkeypatch.setattr(growth, "symbol_ratios", counting_ratios)
    assert len(growth.growth_sequences(f, family, 1, 16)) == 12
    assert (len(built), stacks) == (1, [5, 5, 2])
    built.clear()
    assert len(growth.growth_sequences(f, family, 2, 16)) == 12
    assert built == []


def test_step_passes_have_no_knob():
    # SpatialStep chooses each axis's pass from the mask alone (K_a, M and
    # n_points): its constructor takes only the spectrum, and the transform
    # module reads no environment and no config
    path = ROOT / "src" / "realpw" / "transform.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    (init,) = [node for cls in tree.body if isinstance(cls, ast.ClassDef)
               and cls.name == "SpatialStep" for node in cls.body
               if isinstance(node, ast.FunctionDef) and node.name == "__init__"]
    args = init.args
    assert [a.arg for a in args.posonlyargs + args.args] == ["self", "spec"]
    assert (args.vararg, args.kwonlyargs, args.kwarg, args.defaults) == (None, [], None, [])
    imports = {alias.name.split(".")[0] for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))
               for alias in node.names} | {
        (node.module or "").split(".")[0] for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)}
    assert not imports & {"os", "sys", "cli", "config", "configparser", "json"}
    reads = [f"transform.py:{node.lineno}" for node in ast.walk(tree)
             if {getattr(node, "id", None), getattr(node, "attr", None)}
             & {"environ", "getenv", "environb", "config", "cfg", "argv"}]
    assert reads == []


def measured_constant(tree, source, name):
    """The module-level assignment of name: a constant expression, under a
    comment that states a measurement."""
    import re
    (constant,) = [node for node in tree.body if isinstance(node, ast.Assign)
                   and [getattr(t, "id", None) for t in node.targets] == [name]]
    assert all(isinstance(node, (ast.Constant, ast.BinOp, ast.operator))
               for node in ast.walk(constant.value))
    lines = source.splitlines()[:constant.lineno - 1]
    comment = " ".join(itertools.takewhile(lambda line: line.startswith("#"), reversed(lines)))
    assert re.search(r"\d (ms|us)\b", comment), name
    return constant


def test_split_has_no_knob():
    # spatial_norms decides whether to split a member from the grid and the
    # CPUs alone: its signature is the pass's four arguments, growth.py
    # reads no environment and no argv, os is read for the CPU affinity only
    # (os.cpu_count() where sched_getaffinity is missing), and the grid size
    # is compared with a module constant whose measurement is its comment
    path = ROOT / "src" / "realpw" / "growth.py"
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    args = spatial_norms_tree().args
    assert [a.arg for a in args.posonlyargs + args.args] == ["f", "family", "n_max", "norms"]
    assert (args.vararg, args.kwonlyargs, args.kwarg, args.defaults) == (None, [], None, [])
    reads = [f"growth.py:{node.lineno}" for node in ast.walk(tree)
             if {getattr(node, "id", None), getattr(node, "attr", None)}
             & {"environ", "getenv", "environb", "argv"}]
    assert reads == []
    os_reads = {node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "os"}
    assert os_reads == {"sched_getaffinity", "cpu_count"}
    measured_constant(tree, source, "SPLIT_MIN_POINTS")
    names = {getattr(node, "id", None) for node in ast.walk(spatial_norms_tree())}
    assert "SPLIT_MIN_POINTS" in names


def test_chunk_has_no_knob():
    # the rows of a d = 1 chunk come from M, n_max and one module constant
    # whose measurement is its comment: spatial_norms reads it, the constant
    # reads no name (no environment, config or argv), and no other function
    # of growth.py names it
    path = ROOT / "src" / "realpw" / "growth.py"
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    constant = measured_constant(tree, source, "CHUNK_MAX_POINTS")
    assert not [node for node in ast.walk(constant.value) if isinstance(node, ast.Name)]
    owner = {id(node): getattr(top, "name", None) for top in tree.body for node in ast.walk(top)}
    users = {owner[id(node)] for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "CHUNK_MAX_POINTS"}
    assert users == {"spatial_norms", None}       # None: the assignment itself
    assignments = [node for node in ast.walk(tree) if isinstance(node, (ast.Assign, ast.AugAssign))
                   and "CHUNK_MAX_POINTS" in {getattr(t, "id", None) for t in (
                       node.targets if isinstance(node, ast.Assign) else [node.target])}]
    assert assignments == [constant]


def test_every_override_is_read():
    # a subcommand registers exactly the overrides its COMMANDS entry lists,
    # and its handler reads each: an override set on the command line and
    # then ignored would be embedded in the report as if it had been used.
    # A handler reads a field when the field's text is a constant in it or
    # in a cli function it calls, transitively; --input sets input.path
    import contextlib
    import io
    import re
    from realpw import cli
    path = ROOT / "src" / "realpw" / "cli.py"
    functions = {node.name: node for node in ast.parse(path.read_text(), filename=str(path)).body
                 if isinstance(node, ast.FunctionDef)}

    def texts(name):
        out, todo, seen = set(), [name], {name}
        while todo:
            for node in ast.walk(functions[todo.pop()]):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    out.add(node.value)
                if isinstance(node, ast.Call) and called(node) in set(functions) - seen:
                    seen.add(called(node))
                    todo.append(called(node))
        return out

    unread, registered, listed = [], {}, {}
    for command, (handler, overrides) in cli.COMMANDS.items():
        read = texts(handler.__name__)
        unread += [f"{command} {name}" for name in overrides
                   if ("input.path" if name == "input" else name) not in read]
        usage = io.StringIO()
        with contextlib.redirect_stdout(usage), contextlib.suppress(SystemExit):
            cli.main([command, "--help"])
        registered[command] = set(re.findall(r"--[a-z-]+", usage.getvalue())) - {
            "--help", "--config"}
        listed[command] = {cli.OVERRIDES[name][0] for name in overrides}
    assert unread == []
    assert registered == listed


def test_builtin_is_one_sampled_function(monkeypatch):
    # each kind of builtin input is constructed once, on the spatial side: a
    # spectral bump built on the frequency side, transformed and then copied
    # was three SampledFunctions, each a finiteness scan of the whole grid
    from realpw import grid, make_grid, sample_builtin
    built, post_init = [], grid.SampledFunction.__post_init__

    def counting(self):
        built.append(self.side)
        post_init(self)

    monkeypatch.setattr(grid.SampledFunction, "__post_init__", counting)
    counts = {}
    for builtin in ({"kind": "spectral_bump", "support": {"shape": "ball", "radius": 1.0}},
                    {"kind": "spatial_bump", "support": {"shape": "ball", "radius": 1.0}},
                    {"kind": "gaussian", "sigma": 0.25}):
        built.clear()
        assert sample_builtin(builtin, make_grid(2, 64, 0.1)).side == "spatial"
        counts[builtin["kind"]] = list(built)
    assert counts == dict.fromkeys(("spectral_bump", "spatial_bump", "gaussian"), ["spatial"])
