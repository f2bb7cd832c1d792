//! Tree-walking interpreter for the C/C++ dialect.
//!
//! Executes programs off their resolved form ([`crate::code`]), recording
//! **line coverage** as it goes — the coverage profile that the
//! `+coverage` metric variants consume is produced by genuinely running
//! the mini-apps (the paper recompiles with coverage flags and runs "a
//! reduced problem set"; here the interpreter plays the role of the
//! instrumented binary).
//!
//! Parallel constructs execute with sequential semantics (loop iterations
//! run in order): the *semantics* of every model are honoured — kernels
//! see `threadIdx`/`blockIdx`, SYCL command groups get handlers, Kokkos
//! reducers accumulate — so verification results and coverage match what
//! the real runtimes produce for deterministic kernels.
//!
//! Variables live in one stack of frame cells: a call pushes its frame
//! (sized by the resolver), a declaration stores its value at its frame
//! index, and the frame is popped on return.  Blocks cost nothing at run
//! time, and a variable is moved into a shared slot only when a lambda
//! captures it or a reference parameter or out-parameter binds it.

use crate::code::{
    self, BinOp, Block, Call, Code, DeclInit, Expr, ExprKind, Fallback, FnCode, Launch, Loc, Name,
    Stmt, StmtKind, Target, UnOp, Var, KERNEL_COORDS,
};
use crate::intrinsics;
use crate::value::{new_slot, ArrayRef, Closure, Native, Slot, Value};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use svlang::ast::Program;
use svtree::mask::{CoverageMask, LineMask};

/// Runtime error with source line.
#[derive(Debug, Clone)]
pub struct ExecError {
    pub message: String,
    pub line: u32,
}

impl ExecError {
    pub fn new(message: impl Into<String>, line: u32) -> Self {
        ExecError { message: message.into(), line }
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "runtime error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ExecError {}

pub type ExecResult<T> = Result<T, ExecError>;

/// Statement-level control flow.
enum Flow {
    Normal,
    Break,
    Continue,
    Return(Value),
}

/// A frame entry.
#[derive(Clone)]
enum Cell {
    /// Not declared yet in this frame.
    Unset,
    /// A value only the frame reaches.
    Own(Value),
    /// A slot shared with closures or reference parameters.
    Shared(Slot),
}

impl Cell {
    /// The cell's slot, moving an owned value into a fresh one first.
    fn share(&mut self) -> Option<Slot> {
        if let Cell::Own(v) = self {
            *self = Cell::Shared(new_slot(std::mem::replace(v, Value::Unit)));
        }
        match self {
            Cell::Shared(s) => Some(s.clone()),
            _ => None,
        }
    }
}

/// An assignable place.
enum Place {
    /// A frame cell holding an owned value, by stack index.
    Local(usize),
    Slot(Slot),
    Elem(ArrayRef, usize),
    Field(Rc<HashMap<String, Slot>>, String),
}

impl Place {
    fn get(&self, it: &Interp, line: u32) -> ExecResult<Value> {
        match self {
            Place::Local(k) => match &it.stack[*k] {
                Cell::Own(v) => Ok(v.clone()),
                Cell::Shared(s) => Ok(s.borrow().clone()),
                Cell::Unset => unreachable!("places are taken of declared cells"),
            },
            Place::Slot(s) => Ok(s.borrow().clone()),
            Place::Elem(a, i) => a
                .borrow()
                .get(*i)
                .cloned()
                .ok_or_else(|| ExecError::new(format!("index {i} out of bounds"), line)),
            Place::Field(o, name) => o
                .get(name)
                .map(|s| s.borrow().clone())
                .ok_or_else(|| ExecError::new(format!("no field {name}"), line)),
        }
    }

    fn set(&self, it: &mut Interp, v: Value, line: u32) -> ExecResult<()> {
        match self {
            Place::Local(k) => {
                match &mut it.stack[*k] {
                    Cell::Shared(s) => *s.borrow_mut() = v,
                    cell => *cell = Cell::Own(v),
                }
                Ok(())
            }
            Place::Slot(s) => {
                *s.borrow_mut() = v;
                Ok(())
            }
            Place::Elem(a, i) => {
                let mut arr = a.borrow_mut();
                let len = arr.len();
                let cell = arr.get_mut(*i).ok_or_else(|| {
                    ExecError::new(format!("index {i} out of bounds (len {len})"), line)
                })?;
                *cell = v;
                Ok(())
            }
            Place::Field(o, name) => {
                let slot =
                    o.get(name).ok_or_else(|| ExecError::new(format!("no field {name}"), line))?;
                *slot.borrow_mut() = v;
                Ok(())
            }
        }
    }
}

/// The caller's frame, restored when a call returns.
struct Saved {
    base: usize,
    file: u32,
    closure: Option<Rc<Closure>>,
}

/// The interpreter.
pub struct Interp {
    pub(crate) code: Rc<Code>,
    globals: Vec<Option<Slot>>,
    /// Frames of the active calls, innermost at the top.
    stack: Vec<Cell>,
    /// Start of the running frame in `stack`.
    base: usize,
    /// The running lambda, whose captures `Loc::Capture` indexes.
    closure: Option<Rc<Closure>>,
    /// File of the running code.
    file: u32,
    /// Covered lines per file index.
    lines: Vec<LineMask>,
    /// The `(file, line)` recorded last: most nodes of a statement share
    /// its line, and those record nothing new.
    last_recorded: (u32, u32),
    /// Line coverage of the run, complete once [`Interp::run_main`] returns.
    pub coverage: CoverageMask,
    /// Captured `printf` output.
    pub output: String,
    /// Simulated wall clock (advanced by timer intrinsics).
    pub(crate) time: f64,
    steps: u64,
    step_limit: u64,
}

impl Interp {
    /// Build an interpreter over a parsed program (globals initialised).
    pub fn new(prog: &Program) -> ExecResult<Interp> {
        let code = Rc::new(code::resolve(prog));
        let mut it = Interp {
            globals: vec![None; code.n_globals],
            code: code.clone(),
            stack: Vec::new(),
            base: 0,
            closure: None,
            file: 0,
            lines: Vec::new(),
            last_recorded: (u32::MAX, 0),
            coverage: CoverageMask::new(),
            output: String::new(),
            time: 0.0,
            steps: 0,
            step_limit: crate::DEFAULT_STEP_LIMIT,
        };
        // Globals in declaration order; initialisers can call functions.
        for g in &code.globals {
            it.set_file(g.file);
            let val = match &g.init {
                Some(e) => it.eval(e)?,
                None => g.default.clone(),
            };
            it.globals[g.index as usize] = Some(new_slot(val));
        }
        Ok(it)
    }

    /// Cap the number of executed statements (runaway-loop guard).
    pub fn set_step_limit(&mut self, limit: u64) {
        self.step_limit = limit;
    }

    /// Statements, loop iterations and kernel threads executed so far: the
    /// count the step limit is checked against.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Run `main()`; returns its exit value.
    pub fn run_main(&mut self) -> ExecResult<i64> {
        let main = self
            .code
            .main
            .map(|id| self.code.fns[id as usize].clone())
            .ok_or_else(|| ExecError::new("undefined function main", 0))?;
        let v = self.call_fn(&main, Vec::new())?;
        let mut coverage = CoverageMask::new();
        for (file, mask) in self.lines.iter().enumerate() {
            if mask.count() > 0 {
                coverage.insert_file(file as u32, mask.clone());
            }
        }
        self.coverage = coverage;
        Ok(v.as_int().unwrap_or(0))
    }

    fn set_file(&mut self, file: u32) {
        if self.lines.len() <= file as usize {
            self.lines.resize(file as usize + 1, LineMask::new());
        }
        self.file = file;
    }

    /// Push a frame of `n_slots` unset cells.
    fn enter(&mut self, n_slots: usize, file: u32, closure: Option<Rc<Closure>>) -> Saved {
        let saved = Saved {
            base: self.base,
            file: self.file,
            closure: std::mem::replace(&mut self.closure, closure),
        };
        self.base = self.stack.len();
        self.stack.resize(self.base + n_slots, Cell::Unset);
        self.set_file(file);
        saved
    }

    fn leave(&mut self, saved: Saved) {
        self.stack.truncate(self.base);
        self.base = saved.base;
        self.file = saved.file;
        self.closure = saved.closure;
    }

    /// Set frame index `slot` of the running frame.
    fn bind(&mut self, slot: usize, cell: Cell) {
        self.stack[self.base + slot] = cell;
    }

    /// Call a user function with already-evaluated arguments.
    pub(crate) fn call_fn(&mut self, f: &Rc<FnCode>, args: Vec<Value>) -> ExecResult<Value> {
        let saved = self.enter(f.n_slots, f.file, None);
        for (i, a) in args.into_iter().take(f.n_params).enumerate() {
            self.bind(KERNEL_COORDS.len() + i, Cell::Own(a));
        }
        self.record(f.line);
        let flow = self.exec_block(&f.body);
        self.leave(saved);
        match flow? {
            Flow::Return(v) => Ok(v),
            _ => Ok(Value::Unit),
        }
    }

    /// Call a function-pointer value.
    pub(crate) fn call_fn_value(
        &mut self,
        f: &Value,
        args: Vec<Value>,
        line: u32,
    ) -> ExecResult<Value> {
        match f {
            Value::FnRef(func) => self.call_fn(func, args),
            // Operator functors are not functions.
            Value::Op(op) => {
                Err(ExecError::new(format!("undefined function {}", op.as_str()), line))
            }
            other => Err(ExecError::new(format!("cannot call {other:?}"), line)),
        }
    }

    /// Call a closure with positional values; reference parameters receive
    /// the provided slots when `slots` supplies one at that position.
    pub(crate) fn call_closure(
        &mut self,
        c: &Rc<Closure>,
        args: Vec<Value>,
        slots: Vec<Option<Slot>>,
    ) -> ExecResult<Value> {
        let code = c.code.clone();
        let saved = self.enter(code.n_slots, code.file, Some(c.clone()));
        let mut args = args.into_iter();
        let mut slots = slots.into_iter();
        for (i, &by_ref) in code.by_ref.iter().enumerate() {
            let arg = args.next();
            let cell = match (by_ref, slots.next().flatten()) {
                (true, Some(s)) => Cell::Shared(s),
                _ => Cell::Own(arg.unwrap_or(Value::Unit)),
            };
            self.bind(i, cell);
        }
        let flow = self.exec_block(&code.body);
        self.leave(saved);
        match flow? {
            Flow::Return(v) => Ok(v),
            _ => Ok(Value::Unit),
        }
    }

    #[inline]
    fn record(&mut self, line: u32) {
        if self.last_recorded != (self.file, line) {
            self.last_recorded = (self.file, line);
            self.lines[self.file as usize].set(line);
        }
    }

    #[inline]
    fn tick(&mut self, line: u32) -> ExecResult<()> {
        self.steps += 1;
        if self.steps > self.step_limit {
            return Err(ExecError::new("step limit exceeded (runaway loop?)", line));
        }
        Ok(())
    }

    fn capture(&self, k: u32) -> Option<&Slot> {
        self.closure.as_ref().and_then(|c| c.captures[k as usize].as_ref())
    }

    fn global(&self, v: &Var) -> Option<&Slot> {
        v.global.and_then(|g| self.globals[g as usize].as_ref())
    }

    /// The value of a variable, if it is set.
    fn read(&self, v: &Var) -> Option<Value> {
        let slot = match v.at {
            Loc::Local(i) => match &self.stack[self.base + i as usize] {
                Cell::Own(val) => return Some(val.clone()),
                Cell::Shared(s) => Some(s),
                Cell::Unset => self.global(v),
            },
            Loc::Capture(k) => self.capture(k).or_else(|| self.global(v)),
            Loc::Global(g) => self.globals[g as usize].as_ref(),
            Loc::Free => None,
        };
        slot.map(|s| s.borrow().clone())
    }

    /// The shared slot of a variable, if it is set.
    fn share(&mut self, v: &Var) -> Option<Slot> {
        let slot = match v.at {
            Loc::Local(i) => self.stack[self.base + i as usize].share(),
            Loc::Capture(k) => self.capture(k).cloned(),
            Loc::Global(g) => return self.globals[g as usize].clone(),
            Loc::Free => None,
        };
        slot.or_else(|| self.global(v).cloned())
    }

    /// The variable an out-parameter argument names, through `&` and casts.
    pub(crate) fn out_param(&mut self, e: &Expr) -> Option<Slot> {
        match &e.kind {
            ExprKind::Unary(UnOp::AddrOf, x) | ExprKind::Cast(_, x) => self.out_param(x),
            ExprKind::Name(n) if n.single => self.share(&n.var),
            _ => None,
        }
    }

    // -- statements -----------------------------------------------------------

    fn exec_block(&mut self, blk: &Block) -> ExecResult<Flow> {
        for s in blk.iter() {
            match self.exec_stmt(s)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, s: &Stmt) -> ExecResult<Flow> {
        self.tick(s.line)?;
        self.record(s.line);
        match &s.kind {
            StmtKind::Decl { slot, init } => {
                let val = match init {
                    DeclInit::Expr(e, conv) => conv.apply(self.eval(e)?),
                    // `sycl::queue q;` — named types default-construct.
                    DeclInit::Construct(ctor, default) => {
                        intrinsics::construct(self, ctor, Vec::new(), s.line)
                            .unwrap_or_else(|_| default.clone())
                    }
                    DeclInit::Value(v) => v.clone(),
                };
                self.bind(*slot as usize, Cell::Own(val));
                Ok(Flow::Normal)
            }
            StmtKind::Expr(e) => {
                self.eval(e)?;
                Ok(Flow::Normal)
            }
            StmtKind::If(cond, then_blk, else_blk) => {
                if self.eval(cond)?.truthy() {
                    self.exec_block(then_blk)
                } else if let Some(e) = else_blk {
                    self.exec_block(e)
                } else {
                    Ok(Flow::Normal)
                }
            }
            StmtKind::For { init, cond, step, body } => {
                if let Some(i) = init {
                    self.exec_stmt(i)?;
                }
                loop {
                    self.tick(s.line)?;
                    if let Some(c) = cond {
                        if !self.eval(c)?.truthy() {
                            break;
                        }
                    }
                    match self.exec_block(body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        _ => {}
                    }
                    if let Some(st) = step {
                        self.eval(st)?;
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::While(cond, body) => {
                loop {
                    self.tick(s.line)?;
                    if !self.eval(cond)?.truthy() {
                        break;
                    }
                    match self.exec_block(body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        _ => {}
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::Switch(scrutinee, arms) => {
                let v = self
                    .eval(scrutinee)?
                    .as_int()
                    .ok_or_else(|| ExecError::new("switch scrutinee must be integral", s.line))?;
                // Find the matching arm (or default), then execute with C
                // fallthrough semantics until a break.
                let start = arms
                    .iter()
                    .position(|a| a.0 == Some(v))
                    .or_else(|| arms.iter().position(|a| a.0.is_none()));
                if let Some(start) = start {
                    'arms: for (_, stmts) in &arms[start..] {
                        for st in stmts.iter() {
                            match self.exec_stmt(st)? {
                                Flow::Break => break 'arms,
                                Flow::Return(rv) => return Ok(Flow::Return(rv)),
                                Flow::Continue => return Ok(Flow::Continue),
                                Flow::Normal => {}
                            }
                        }
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::Return(expr) => {
                let v = match expr {
                    Some(e) => self.eval(e)?,
                    None => Value::Unit,
                };
                Ok(Flow::Return(v))
            }
            StmtKind::Break => Ok(Flow::Break),
            StmtKind::Continue => Ok(Flow::Continue),
            StmtKind::Block(b) => self.exec_block(b),
            // Directive semantics reduce to sequential execution; the
            // governed statement runs normally (reductions, target regions
            // and parallel loops are all order-insensitive in the corpus).
            StmtKind::Pragma(stmt) => match stmt {
                Some(s) => self.exec_stmt(s),
                None => Ok(Flow::Normal),
            },
        }
    }

    // -- expressions -----------------------------------------------------------

    pub(crate) fn eval(&mut self, e: &Expr) -> ExecResult<Value> {
        self.record(e.line);
        match &e.kind {
            ExprKind::Const(v) => Ok(v.clone()),
            ExprKind::Name(n) => self.eval_name(n, e.line),
            ExprKind::Unary(op, x) => self.eval_unary(*op, x),
            ExprKind::Binary(op, lhs, rhs) => {
                let l = self.eval(lhs)?;
                let r = self.eval(rhs)?;
                binary_op(*op, &l, &r, e.line)
            }
            ExprKind::And(lhs, rhs) => {
                if !self.eval(lhs)?.truthy() {
                    return Ok(Value::Bool(false));
                }
                Ok(Value::Bool(self.eval(rhs)?.truthy()))
            }
            ExprKind::Or(lhs, rhs) => {
                if self.eval(lhs)?.truthy() {
                    return Ok(Value::Bool(true));
                }
                Ok(Value::Bool(self.eval(rhs)?.truthy()))
            }
            ExprKind::Assign(op, lhs, rhs) => {
                let rv = self.eval(rhs)?;
                let place = self.eval_place(lhs)?;
                let new = match op {
                    None => rv,
                    Some(op) => binary_op(*op, &place.get(self, e.line)?, &rv, e.line)?,
                };
                place.set(self, new.clone(), e.line)?;
                Ok(new)
            }
            ExprKind::Ternary(t) => {
                let [cond, then_e, else_e] = &**t;
                if self.eval(cond)?.truthy() {
                    self.eval(then_e)
                } else {
                    self.eval(else_e)
                }
            }
            ExprKind::Call(c) => self.eval_call(c, e.line),
            ExprKind::KernelLaunch(l) => self.eval_kernel_launch(l, e.line),
            ExprKind::Index(base, index) => {
                self.index_place(base, index, e.line)?.get(self, e.line)
            }
            ExprKind::Member(base, member) => {
                let b = self.eval(base)?;
                member_get(&b, member, e.line)
            }
            ExprKind::Lambda(code, captures) => {
                let captures = captures.iter().map(|v| self.share(v)).collect();
                Ok(Value::Closure(Rc::new(Closure { code: code.clone(), captures })))
            }
            ExprKind::Cast(conv, x) => Ok(conv.apply(self.eval(x)?)),
            ExprKind::Construct(ctor, args) => {
                let argv = self.eval_args(args)?;
                intrinsics::construct(self, ctor, argv, e.line)
            }
            ExprKind::InitList(items) => {
                let vals = self.eval_args(items)?;
                Ok(Value::Array(Rc::new(RefCell::new(vals))))
            }
        }
    }

    fn eval_args(&mut self, args: &[Expr]) -> ExecResult<Vec<Value>> {
        args.iter().map(|a| self.eval(a)).collect()
    }

    fn eval_name(&mut self, n: &Name, line: u32) -> ExecResult<Value> {
        if let Some(v) = self.read(&n.var) {
            return Ok(v);
        }
        match &n.fallback {
            Fallback::Fn(id) => Ok(Value::FnRef(self.code.fns[*id as usize].clone())),
            Fallback::Value(v) => Ok(v.clone()),
            Fallback::Undefined => Err(ExecError::new(format!("undefined name {}", n.text), line)),
        }
    }

    fn eval_unary(&mut self, op: UnOp, x: &Expr) -> ExecResult<Value> {
        match op {
            UnOp::Inc | UnOp::Dec => {
                let place = self.eval_place(x)?;
                let cur = place.get(self, x.line)?;
                let step = if let UnOp::Inc = op { BinOp::Add } else { BinOp::Sub };
                let next = binary_op(step, &cur, &Value::Int(1), x.line)?;
                place.set(self, next.clone(), x.line)?;
                // Both pre/post forms appear only as statements or loop
                // steps in the corpus, so the value distinction is moot.
                Ok(next)
            }
            // Arrays and objects are handles already.
            UnOp::AddrOf | UnOp::Deref | UnOp::Plus => self.eval(x),
            UnOp::Neg => match self.eval(x)? {
                Value::Int(i) => Ok(Value::Int(-i)),
                Value::Real(r) => Ok(Value::Real(-r)),
                other => Err(ExecError::new(format!("cannot negate {other:?}"), x.line)),
            },
            UnOp::Not => Ok(Value::Bool(!self.eval(x)?.truthy())),
            UnOp::BitNot => Ok(Value::Int(!self.eval(x)?.as_int().unwrap_or(0))),
            UnOp::Other(other) => Err(ExecError::new(format!("unsupported unary {other}"), x.line)),
        }
    }

    fn eval_place(&mut self, e: &Expr) -> ExecResult<Place> {
        match &e.kind {
            ExprKind::Name(n) if n.single => {
                if let Loc::Local(i) = n.var.at {
                    let k = self.base + i as usize;
                    if let Cell::Own(_) = self.stack[k] {
                        return Ok(Place::Local(k));
                    }
                }
                match self.share(&n.var) {
                    Some(slot) => Ok(Place::Slot(slot)),
                    None => Err(ExecError::new(format!("undefined variable {}", n.text), e.line)),
                }
            }
            ExprKind::Index(base, index) => self.index_place(base, index, e.line),
            ExprKind::Member(base, member) => match self.eval(base)? {
                Value::Object(o) => Ok(Place::Field(o, member.clone())),
                other => Err(ExecError::new(
                    format!("cannot assign member {member} of {other:?}"),
                    e.line,
                )),
            },
            ExprKind::Unary(UnOp::Deref, x) => self.eval_place(x),
            // Kokkos view / accessor call-syntax element access: `a(i) = v`.
            ExprKind::Call(c) if c.args.len() == 1 => {
                let recv = self.eval(&c.callee)?;
                let arr = recv
                    .array()
                    .ok_or_else(|| ExecError::new("expression is not assignable", e.line))?;
                let idx = self
                    .eval(&c.args[0])?
                    .as_int()
                    .ok_or_else(|| ExecError::new("element index must be integral", e.line))?;
                Ok(Place::Elem(arr, idx as usize))
            }
            _ => Err(ExecError::new("expression is not assignable", e.line)),
        }
    }

    fn index_place(&mut self, base: &Expr, index: &Expr, line: u32) -> ExecResult<Place> {
        let b = self.eval(base)?;
        let idx = self
            .eval(index)?
            .as_int()
            .ok_or_else(|| ExecError::new("index is not an integer", line))?;
        let arr = b.array().ok_or_else(|| ExecError::new(format!("cannot index {b:?}"), line))?;
        Ok(Place::Elem(arr, idx as usize))
    }

    fn eval_call(&mut self, c: &Call, line: u32) -> ExecResult<Value> {
        let (func, intrinsic, ctor) = match &c.target {
            Target::Special(special) => {
                return intrinsics::special_form(self, *special, &c.args, line);
            }
            Target::Method(method) => {
                let ExprKind::Member(base, name) = &c.callee.kind else {
                    unreachable!("method calls have a member callee")
                };
                let recv = self.eval(base)?;
                let argv = self.eval_args(&c.args)?;
                return intrinsics::member_call(self, &recv, *method, name, argv, line);
            }
            Target::Value => {
                let argv = self.eval_args(&c.args)?;
                return match self.eval(&c.callee)? {
                    Value::Closure(cl) => {
                        let slots = self.arg_slots(&c.args);
                        self.call_closure(&cl, argv, slots)
                    }
                    f => self.call_fn_value(&f, argv, line),
                };
            }
            Target::Path { func, intrinsic, ctor } => (func, intrinsic, ctor),
        };
        let argv = self.eval_args(&c.args)?;
        let ExprKind::Name(n) = &c.callee.kind else {
            unreachable!("path calls have a name callee")
        };
        // A local callable value (closure / view / accessor call syntax)?
        if let Some(v) = self.read(&n.var) {
            match v {
                Value::Closure(cl) => {
                    let slots = self.arg_slots(&c.args);
                    return self.call_closure(&cl, argv, slots);
                }
                Value::Native(Native::View(a) | Native::Accessor(a) | Native::Buffer(a)) => {
                    // Kokkos view(i) element read.
                    let idx = argv
                        .first()
                        .and_then(Value::as_int)
                        .ok_or_else(|| ExecError::new("view index", line))?;
                    return Place::Elem(a, idx as usize).get(self, line);
                }
                f @ (Value::FnRef(_) | Value::Op(_)) => return self.call_fn_value(&f, argv, line),
                _ => {}
            }
        }
        if let Some(id) = func {
            let f = self.code.fns[*id as usize].clone();
            return self.call_fn(&f, argv);
        }
        // `Type(args)` construction is syntactically a call: intrinsic
        // functions first, then constructor dispatch.
        match intrinsic {
            Some(i) => intrinsics::free_call(self, *i, &argv, line),
            None => intrinsics::construct(self, ctor, argv, line),
        }
    }

    /// Slots of simple-name arguments (for by-reference parameters).
    fn arg_slots(&mut self, args: &[Expr]) -> Vec<Option<Slot>> {
        args.iter()
            .map(|a| match &a.kind {
                ExprKind::Name(n) if n.single => self.share(&n.var),
                _ => None,
            })
            .collect()
    }

    fn eval_kernel_launch(&mut self, l: &Launch, line: u32) -> ExecResult<Value> {
        let g = self
            .eval(&l.grid)?
            .as_int()
            .ok_or_else(|| ExecError::new("grid dim must be integral", line))?;
        let b = self
            .eval(&l.block)?
            .as_int()
            .ok_or_else(|| ExecError::new("block dim must be integral", line))?;
        let f = match &l.kernel {
            Ok(id) => self.code.fns[*id as usize].clone(),
            Err(msg) => return Err(ExecError::new(msg.clone(), line)),
        };
        let argv = self.eval_args(&l.args)?;
        for tid in 0..(g * b) {
            self.tick(line)?;
            let saved = self.enter(f.n_slots, f.file, None);
            for (i, x) in [tid % b, tid / b, b, g].into_iter().enumerate() {
                self.bind(i, Cell::Own(Value::Native(Native::Dim3 { x })));
            }
            for (i, a) in argv.iter().take(f.n_params).enumerate() {
                self.bind(KERNEL_COORDS.len() + i, Cell::Own(a.clone()));
            }
            let flow = self.exec_block(&f.body);
            self.leave(saved);
            flow?;
        }
        Ok(Value::Unit)
    }
}

fn member_get(base: &Value, member: &str, line: u32) -> ExecResult<Value> {
    match base {
        Value::Object(o) => o
            .get(member)
            .map(|s| s.borrow().clone())
            .ok_or_else(|| ExecError::new(format!("no field {member}"), line)),
        Value::Native(Native::Dim3 { x }) if member == "x" => Ok(Value::Int(*x)),
        Value::Array(a) if member == "size" => Ok(Value::Int(a.borrow().len() as i64)),
        other => Err(ExecError::new(format!("no member {member} on {other:?}"), line)),
    }
}

/// Numeric binary operators.
pub(crate) fn binary_op(op: BinOp, l: &Value, r: &Value, line: u32) -> ExecResult<Value> {
    use Value::*;
    let both_int = matches!((l, r), (Int(_) | Bool(_), Int(_) | Bool(_)));
    let err =
        || ExecError::new(format!("invalid operands for {}: {l:?}, {r:?}", op.as_str()), line);
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => {
            if both_int {
                let a = l.as_int().ok_or_else(err)?;
                let b = r.as_int().ok_or_else(err)?;
                let v = match op {
                    BinOp::Add => a.wrapping_add(b),
                    BinOp::Sub => a.wrapping_sub(b),
                    BinOp::Mul => a.wrapping_mul(b),
                    BinOp::Div => {
                        if b == 0 {
                            return Err(ExecError::new("integer division by zero", line));
                        }
                        a / b
                    }
                    _ => {
                        if b == 0 {
                            return Err(ExecError::new("integer modulo by zero", line));
                        }
                        a % b
                    }
                };
                Ok(Int(v))
            } else {
                let a = l.as_real().ok_or_else(err)?;
                let b = r.as_real().ok_or_else(err)?;
                let v = match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => a / b,
                    _ => a % b,
                };
                Ok(Real(v))
            }
        }
        BinOp::Shl | BinOp::Shr | BinOp::BitAnd | BinOp::BitOr | BinOp::BitXor => {
            let a = l.as_int().ok_or_else(err)?;
            let b = r.as_int().ok_or_else(err)?;
            let v = match op {
                BinOp::Shl => a.wrapping_shl(b as u32),
                BinOp::Shr => a.wrapping_shr(b as u32),
                BinOp::BitAnd => a & b,
                BinOp::BitOr => a | b,
                _ => a ^ b,
            };
            Ok(Int(v))
        }
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge => {
            let a = l.as_real().ok_or_else(err)?;
            let b = r.as_real().ok_or_else(err)?;
            let v = match op {
                BinOp::Eq => a == b,
                BinOp::Ne => a != b,
                BinOp::Lt => a < b,
                BinOp::Gt => a > b,
                BinOp::Le => a <= b,
                _ => a >= b,
            };
            Ok(Bool(v))
        }
        BinOp::Other(other) => Err(ExecError::new(format!("unsupported operator {other}"), line)),
    }
}
