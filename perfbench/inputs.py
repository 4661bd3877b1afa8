"""Input files for the four benchmark workloads.

Everything chrgen reads comes from files written here: fixed programs,
specs, rule and goal files for the three fixed workloads, and a seeded
family of fact-table programs for ``bool-family``. This module does not
import chrgen.
"""

from __future__ import annotations

import random
from pathlib import Path

WORKLOADS = ("min-pipeline", "append-mine", "append-answers", "bool-family")

MIN_CLP = """\
min(X,Y,Z) :- X #=< Y, Z = X.
min(X,Y,Z) :- Y #=< X, Z = Y.
"""

MIN_SPEC = """\
base: min(X,Y,Z)
cand_lhs: X#=<Y, Y#=<X, Z#=<X, Z#=<Y, Z#>X, Z#>Y, Z=X, Z=Y, Z\\=X, Z\\=Y
cand_rhs: cand_lhs
"""

MIN_GOALS = """\
min(1,2,Z)
min(2,1,Z)
min(X,Y,Z), X#=<Y
min(X,Y,Z), Z=X
min(0,Y,1)
"""

APPEND_CLP = """\
append(X,Y,Z) :- X=[], Y=Z.
append(X,Y,Z) :- X=[H|X1], Z=[H|Z1], append(X1,Y,Z1).
"""

APPEND_SPEC = """\
base: append(X,Y,Z)
cand_lhs: X=[], Y=[], Z=[], X=Y, X=Z, Y=Z,
          X\\=[], Y\\=[], Z\\=[], X\\=Y, X\\=Z, Y\\=Z
cand_rhs: cand_lhs
"""

# The five append propagation rules that ``append-answers`` transforms.
APPEND_RULES = """\
append(X,Y,Z), X=[] ==> Y=Z.
append(X,Y,Z), Y=[] ==> X=Z.
append(X,Y,Z), X=Z ==> Y=[].
append(X,Y,Z), Y\\=[] ==> X\\=Z.
append(X,Y,Z), Z=[] ==> X=[], Y=[].
"""

APPEND_GOALS = """\
append([],Y,Z)
append(X,[],Z)
append(X,Y,[])
append([a],[b],Z)
append(X,Y,Z), X=Z
append([a|T],Y,[b|W])
"""

# -- bool-family --------------------------------------------------------------

BOOL_ROWS = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
# Every argument permutation of p/3 except the identity.
BOOL_PERMS = ("p(Y,X,Z)", "p(X,Z,Y)", "p(Z,Y,X)", "p(Y,Z,X)", "p(Z,X,Y)")
BOOL_CANDS = "X=0, X=1, Y=0, Y=1, Z=0, Z=1"
# Ground-prefix goals.
BOOL_GOALS = ("p(0,Y,Z)", "p(1,Y,Z)", "p(0,1,Z)", "p(1,0,Z)")
BOOL_ITEMS = 40
# The tables of the family come from this fixed generator seed; see bool_family.
BOOL_TABLE_SEED = 0


def bool_family(seed: int, items: int) -> list[dict[str, str]]:
    """The family of fact-table items, in the order the seed gives.

    Item i has a p table of 1 + i % 8 rows, a q table of 1 + i // 5 % 8 rows
    and permutation i % 5 of p on the general rhs, so 40 items cover every
    (p size, permutation) pair once. The rows come from BOOL_TABLE_SEED and
    the run's seed shuffles the items: the tables are the same for every
    seed, because an item's cost hangs on details of its rows. Drawing the
    rows from the run's seed spread the family time from 25 s to 36 s over
    ten seeds, and swapping 0 and 1 in a table changed an item's time up
    to fourfold, through the order of the rules the runtime tries.
    """
    tables = random.Random(BOOL_TABLE_SEED)
    family = []
    for i in range(items):
        p_rows = sorted(tables.sample(BOOL_ROWS, 1 + i % 8))
        q_rows = sorted(tables.sample(BOOL_ROWS, 1 + i // 5 % 8))
        perm = BOOL_PERMS[i % len(BOOL_PERMS)]
        family.append({
            "clp": "".join(f"p({a},{b},{c}).\n" for a, b, c in p_rows)
            + "".join(f"q({a},{b},{c}).\n" for a, b, c in q_rows),
            "prim.spec": f"base: p(X,Y,Z)\ncand_lhs: {BOOL_CANDS}\ncand_rhs: cand_lhs\n",
            "gen.spec": f"base: p(X,Y,Z)\ncand_lhs: {BOOL_CANDS}\ncand_rhs: q(X,Y,Z), {perm}\n",
            "goals": "".join(g + "\n" for g in BOOL_GOALS),
        })
    random.Random(seed).shuffle(family)
    return family


def write_inputs(workload: str, seed: int, items: int, directory: Path) -> None:
    """Write the workload's input files into ``directory``. Only the item
    order of ``bool-family`` depends on the seed; the other workloads are
    fixed."""
    directory.mkdir(parents=True, exist_ok=True)
    files: dict[str, str] = {}
    if workload == "min-pipeline":
        files = {"min.clp": MIN_CLP, "min.spec": MIN_SPEC, "min.goals": MIN_GOALS}
    elif workload in ("append-mine", "append-answers"):
        files = {
            "append.clp": APPEND_CLP,
            "append.spec": APPEND_SPEC,
            "append.rules": APPEND_RULES,
            "append.goals": APPEND_GOALS,
        }
    elif workload == "bool-family":
        for i, item in enumerate(bool_family(seed, items)):
            for suffix, text in item.items():
                files[f"item{i:03d}.{suffix}"] = text
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for name, text in files.items():
        (directory / name).write_text(text)
