"""An executable kernel for coinductive data structures.

Finite trees as canonical node sets, least/greatest fixedpoints on
finite subset lattices, lazy lists as corecursive machines, equality by
bisimulation certificates, well-founded recursion, and a small
expression language with a command-line driver.
"""

from .errors import (
    CoinductError,
    EmptyOperand,
    IllFoundedCall,
    Malformed,
    NotAList,
    NotMonotone,
    ParseError,
    Verdict,
)
from .trees import (
    EMPTY_TREE,
    FiniteTree,
    NIL_TREE,
    Node,
    Num,
    UserAtom,
    atom,
    branch_union,
    case_tree,
    cons_tree,
    dump_tree,
    in0,
    in1,
    inject,
    leaf,
    list_case,
    ndepth,
    ntrunc,
    numb,
    oplus,
    otimes,
    scons,
    split,
    tree_depth,
)
from .lattice import Carrier, Subset, SubsetOperator, gfp, is_monotone, lfp, verify_extremal
from .colist import (
    Alphabet,
    AtomFun,
    CoList,
    Definitions,
    StepFn,
    check_llist_upto,
    cons,
    corec,
    iterates,
    lappend,
    lconst,
    lcorf,
    lmap,
    nil,
    observe,
    state_key,
    take,
    tree_trunc,
)
from .bisim import (
    BoundExceeded,
    Certificate,
    Counterexample,
    bisimilarity_gfp,
    closure_check,
    diag_rel,
    eq_upto,
    find_bisimulation,
    rel_combine,
    verify_certificate,
)
from .wf import (
    FinList,
    RecSpec,
    WFRelation,
    is_sexp,
    list_decode,
    list_encode,
    sexp_space,
    subexpression_space,
    transitive_closure,
    wfrec,
)
from .dsl import Expr, elaborate, parse_expr, print_expr
from .cli import run_command

__all__ = [name for name in dir() if not name.startswith("_")]
