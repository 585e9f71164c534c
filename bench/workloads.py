"""Input generators for the benchmark workloads.

Every workload turns a seed into a list of rule cases.  A case is one rule
written twice: a *checking form* (ground typings, ground ``[S^d]``
annotations) and an *inference form* (no variable typings, ``[?]``
annotations).  Each case yields three ops: ``check`` on the checking form,
``infer`` and ``solve`` on the inference form.  The program under test only
ever sees the written files.

``wide-lists`` is rendered here as text, so its bytes depend on nothing but
the seed.  ``corpus-mix`` draws on the committed
fixtures and on ``oracle.gen_instance``; the input digest recorded in
``digests.json`` proves that two commits measured the same bytes.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

OP_KINDS = ("check", "infer", "solve")


@dataclass(frozen=True)
class Case:
    """One rule of a workload, with what is known about it independently of
    the checker and the solver."""

    name: str
    check_path: Path
    infer_path: Path
    # Well-typed by construction, so it must check and must not end Failed.
    directed: bool = False
    # Line of the committed corpus summary this rule must reproduce.
    summary: str | None = None
    # Committed text output of ``ruletypes solve`` on the inference form.
    golden_solve: Path | None = None


# Every workload's seed of record.  Seed 7 is kept back for confirming a
# claimed gain on inputs the change was not tuned on.
DEFAULT_SEED = 1


def digest(paths: list[Path], base: Path) -> str:
    """SHA-256 over the relative names and bytes of the input files."""
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(str(p.relative_to(base)).encode())
        h.update(b"\0")
        h.update(p.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def _write(out: Path, name: str, check: str, infer: str, **extra) -> Case:
    check_path = out / f"{name}.check.rules"
    infer_path = out / f"{name}.infer.rules"
    check_path.write_text(check, encoding="utf-8")
    infer_path.write_text(infer, encoding="utf-8")
    return Case(name, check_path, infer_path, **extra)


def _sizes(groups: tuple[tuple[int, int], ...]) -> list[int]:
    """Widths from (width, count) groups.  ``wide-lists`` has a small group
    of 30 rules and a large group of 20: over its 50 ops of a kind the
    median falls inside the small group and the tail (ten ops beyond it) in
    the middle of the large one, so neither sits on a group boundary and
    both are set by many rules of one width."""
    return [w for w, n in groups for _ in range(n)]


# ---------------------------------------------------------------------------
# corpus-mix

def _corpus_mix(seed: int, root: Path, out: Path, tiny: bool) -> list[Case]:
    from ruletypes import oracle
    from ruletypes.surface import build_context, parse, render_instance, resolve_rule

    def inference_form(ctx, rule) -> str:
        return render_instance(oracle.strip_typings(ctx), oracle.erase_annotations(rule))

    fixtures = root / "tests" / "fixtures"
    summary = {}
    for line in (fixtures / "corpus" / "summary.txt").read_text(encoding="utf-8").splitlines():
        if line.strip():
            summary[line.split()[0]] = line

    cases = []
    for path in sorted((fixtures / "corpus").glob("seed_*.rules")):
        text = path.read_text(encoding="utf-8")
        sf = parse(text)
        ctx = build_context(sf)
        rule = resolve_rule(sf.rules[0], ctx)
        cases.append(_write(out, path.stem, text, inference_form(ctx, rule),
                            summary=summary[path.stem]))

    cases.append(_write(
        out, "example",
        (fixtures / "example2.rules").read_text(encoding="utf-8"),
        (fixtures / "example4.rules").read_text(encoding="utf-8"),
        golden_solve=fixtures / "golden" / "example4_solve.txt"))

    count = 4 if tiny else 470
    base = 1_000_000 + seed * count
    for s in range(base, base + count):
        ctx, rule = oracle.gen_instance(s)
        cases.append(_write(out, f"gen_{s}", render_instance(ctx, rule), inference_form(ctx, rule)))
    return cases


# ---------------------------------------------------------------------------
# wide-lists

def _var_pool(rng: random.Random, n: int) -> dict[str, str]:
    """``n`` variable names, each declared ``N`` or ``Z``; at least one of each."""
    return {f"x{i}": "NZ"[i] if i < 2 else rng.choice("NZ") for i in range(n)}


_LIST_SIGNATURE = """\
sort Z
sort N <: Z
sort E
op c : -> N
op s : Z -> N
op f : Z Z -> Z
op g : N -> Z
vop L : Z* -> E
vop M : N* -> Z
"""


# Element templates of the wide list, one of each per ten elements.  Each
# template has a fixed size, so a rule's cost depends on its width and not on
# the seed.  X is a variable of either sort, Y a variable declared N, W a star
# variable of L and Q one of M.
_LIST_ELEMENTS = (
    "W*", "W*", "L(X,c())", "X", "c()", "s(X)", "f(X,s(c()))", "g(s(X))",
    "M(c(),Q*)", "s(f(g(s(X)),M(s(X),Y)))",
)


def _fill(rng: random.Random, template: str, choices: dict[str, list[str]]) -> str:
    return "".join(rng.choice(choices[ch]) if ch in choices else ch for ch in template)


def _wide_list_rule(rng: random.Random, width: int) -> tuple[str, str]:
    """A well-typed rule ``L(e1,...,en) << [E^L] t -> (t)``.

    Elements of ``L`` are checked at ``Z``: star variables of ``L`` and
    nested ``L`` lists (merged), variables, constants, applications of
    ``s``/``f``/``g`` and lists of the second operator ``M``, nested up to
    five levels.  Each variable is declared ``N^?`` or ``Z^?`` and used only
    where its sort fits.
    """
    var_sorts = _var_pool(rng, max(2, width // 4))
    choices = {
        "X": list(var_sorts),
        "Y": [v for v, s in var_sorts.items() if s == "N"],
        "W": [f"w{i}" for i in range(max(1, width // 8))],
        "Q": [f"m{i}" for i in range(max(1, width // 16))],
    }
    elems = [_LIST_ELEMENTS[i % len(_LIST_ELEMENTS)] for i in range(width)]
    rng.shuffle(elems)
    pattern = f"L({','.join(_fill(rng, e, choices) for e in elems)})"

    decls = [f"var {v} : {s}^?" for v, s in var_sorts.items()]
    decls += [f"svar {w}* : E^L" for w in choices["W"]]
    decls += [f"svar {m}* : Z^M" for m in choices["Q"]]
    decls.append("var t : E^L")
    check = _LIST_SIGNATURE + "\n".join(decls) + f"\nrule {pattern} << [E^L] t -> (t)\n"
    infer = _LIST_SIGNATURE + f"rule {pattern} << [?] t -> (t)\n"
    return check, infer


def _wide_lists(seed: int, root: Path, out: Path, tiny: bool) -> list[Case]:
    rng = random.Random(f"wide-lists/{seed}")
    widths = _sizes(((4, 3), (8, 2))) if tiny else _sizes(((16, 30), (36, 20)))
    rng.shuffle(widths)
    cases = []
    for i, width in enumerate(widths):
        check, infer = _wide_list_rule(rng, width)
        cases.append(_write(out, f"list_{i:02}_w{width}", check, infer, directed=True))
    return cases


_BUILDERS = {"corpus-mix": _corpus_mix, "wide-lists": _wide_lists}
WORKLOADS = tuple(_BUILDERS)


def build(name: str, seed: int, root: Path, out: Path, tiny: bool = False) -> list[Case]:
    """Write the inputs of workload ``name`` for ``seed`` under ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    return _BUILDERS[name](seed, root, out, tiny)
