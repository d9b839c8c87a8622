"""The public API: every exported name and the parameters of each callable.

A failure here means `coinduct.__all__` or a signature changed.  If the
change is meant, update `PUBLIC_API` and say in CHANGES.md what was
added, removed or renamed.
"""

import inspect

import coinduct

# name -> parameter names, or None for modules, constants and exceptions
# without a signature of their own
PUBLIC_API = {
    "Alphabet": ["symbols"],
    "AtomFun": ["name", "table"],
    "BoundExceeded": ["limit"],
    "Carrier": ["elements"],
    "Certificate": ["kind", "pairs", "root"],
    "CoList": [],
    "CoinductError": None,
    "Counterexample": ["index", "reason", "keys"],
    "Definitions": ["alphabet", "functions", "machines"],
    "EMPTY_TREE": None,
    "EmptyOperand": None,
    "FinList": ["tree", "elems"],
    "FiniteTree": ["nodes"],
    "IllFoundedCall": None,
    "Malformed": None,
    "NIL_TREE": None,
    "Node": ["pos", "label"],
    "NotAList": None,
    "NotMonotone": None,
    "Num": ["value"],
    "ParseError": ["offset", "expected"],
    "RecSpec": ["relation", "body"],
    "StepFn": ["name", "seeds", "table"],
    "Subset": ["carrier", "bits"],
    "SubsetOperator": ["fn", "name"],
    "UserAtom": ["symbol"],
    "Verdict": ["ok", "reason", "witness"],
    "WFRelation": ["carrier", "pairs"],
    "atom": ["label"],
    "bisim": None,
    "bisimilarity_gfp": ["m1", "m2"],
    "branch_union": ["m", "n"],
    "case_tree": ["t"],
    "check_llist_upto": ["k", "l", "atoms"],
    "cli": None,
    "closure_check": ["pair", "rel", "kind"],
    "colist": None,
    "cons": ["sym", "tail", "alphabet"],
    "cons_tree": ["m", "n"],
    "corec": ["seed", "machine"],
    "diag_rel": ["trees"],
    "dsl": None,
    "dump_tree": ["t"],
    "elaborate": ["e", "defs"],
    "eq_upto": ["k", "l1", "l2"],
    "errors": None,
    "find_bisimulation": ["l1", "l2", "max_pairs", "kind"],
    "gfp": ["op", "carrier"],
    "in0": ["m"],
    "in1": ["m"],
    "inject": ["side", "m"],
    "is_monotone": ["op", "carrier", "samples", "rng"],
    "is_sexp": ["t", "alphabet", "numeral_bound"],
    "iterates": ["fn", "sym"],
    "lappend": ["left", "right"],
    "lattice": None,
    "lconst": ["sym", "alphabet"],
    "lcorf": ["k", "seed", "machine"],
    "leaf": ["symbol"],
    "lfp": ["op", "carrier"],
    "list_case": ["t"],
    "list_decode": ["t"],
    "list_encode": ["xs", "alphabet"],
    "lmap": ["fn", "source"],
    "ndepth": ["node"],
    "nil": [],
    "ntrunc": ["k", "t"],
    "numb": ["k"],
    "observe": ["l"],
    "oplus": ["a", "b"],
    "otimes": ["a", "b"],
    "parse_expr": ["text"],
    "rel_combine": ["kind", "r", "s"],
    "run_command": ["argv"],
    "scons": ["m", "n"],
    "sexp_space": ["d", "alphabet", "numeral_bound"],
    "split": ["t"],
    "state_key": ["l"],
    "subexpression_space": ["roots"],
    "syntax": None,
    "take": ["k", "l"],
    "transitive_closure": ["pairs"],
    "tree_depth": ["t"],
    "tree_trunc": ["k", "l"],
    "trees": None,
    "verify_certificate": ["cert", "l1", "l2"],
    "verify_extremal": ["op", "carrier", "candidate", "kind"],
    "wf": None,
    "wfrec": ["spec", "arg"],
}


def _params(obj):
    if inspect.ismodule(obj) or not callable(obj):
        return None
    try:
        return list(inspect.signature(obj).parameters)
    except ValueError:  # exception classes that keep the builtin constructor
        return None


def test_public_api_is_pinned():
    assert sorted(coinduct.__all__) == sorted(PUBLIC_API)
    assert {name: _params(getattr(coinduct, name)) for name in coinduct.__all__} == PUBLIC_API
