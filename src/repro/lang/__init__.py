"""The consolidation language: syntax, cost semantics, and tooling.

This package implements Figure 1 (syntax) and Figure 2 (cost-annotated
big-step semantics) of the paper, plus the supporting cast every later
stage needs: a pretty printer, a parser for the same concrete syntax,
builders, traversal utilities and a typed library-function table.
"""

from .ast import (
    Arg,
    Assign,
    BinOp,
    BoolConst,
    BoolOp,
    Call,
    Cmp,
    Expr,
    FALSE,
    If,
    IntConst,
    Not,
    Notify,
    Program,
    SKIP,
    Seq,
    Skip,
    Stmt,
    StrConst,
    TRUE,
    Var,
    While,
    seq,
    seq_head,
    seq_tail,
    statements,
)
from .builder import (
    add,
    and_,
    arg,
    assign,
    block,
    call,
    conj,
    disj,
    eq,
    ge,
    gt,
    if_,
    ite_notify,
    le,
    lift,
    lt,
    mul,
    ne,
    not_,
    notify,
    or_,
    program,
    sub,
    var,
    while_,
)
from .compile import (
    BACKENDS,
    DEFAULT_BACKEND,
    CompiledProgram,
    CompileError,
    compile_cached,
    compile_program,
    make_runner,
)
from .cost import DEFAULT_COST_MODEL, CostModel
from .functions import BOOL, INT, STR, FunctionTable, LibraryFunction
from .interp import (
    Interpreter,
    InterpError,
    NotificationClash,
    RunResult,
    StepLimitExceeded,
    combine_sequential,
    run_program,
    run_sequentially,
)
from .parser import ParseError, parse_expr, parse_program, parse_stmt
from .vectorize import (
    BatchResult,
    VectorizedProgram,
    VectorizeError,
    clear_vectorize_cache,
    columns_from_records,
    vectorize_cached,
    vectorize_program,
)
from .printer import expr_to_str, program_to_str, stmt_to_str, to_str
from .visitors import (
    assigned_vars,
    check_program,
    expr_args,
    expr_calls,
    expr_size,
    expr_vars,
    map_exprs,
    notified_pids,
    qualify_locals,
    rename_vars,
    stmt_args,
    stmt_calls,
    stmt_exprs,
    stmt_size,
    stmt_vars,
    subexpressions,
    substitute,
    type_of,
)
