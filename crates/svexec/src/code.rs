//! The resolved program the interpreter runs.
//!
//! [`resolve`] compiles a parsed [`Program`] once, when an
//! [`Interp`](crate::Interp) is built, so that running it needs no name
//! lookups, string compares or tree clones:
//!
//! * every variable reference is bound to a frame slot, a lambda capture
//!   or a global by the same scope rules the dialect runs with (function
//!   and lambda frames over the globals, a scope per block and per `for`
//!   header, `switch` arms in the enclosing scope), applied at the point of
//!   use;
//! * every call knows its target: a special form, a model-runtime
//!   intrinsic, a user function by index, a constructor, a method;
//! * operators are enums, and declared types are reduced to the conversion
//!   or default value they imply;
//! * function and lambda bodies sit behind `Rc`, shared by every call and
//!   every closure.
//!
//! Slots are allocated stack-wise: sibling blocks reuse each other's
//! slots, so a frame is as large as the deepest nest of declarations.

use crate::intrinsics::{self, Intrinsic, LibCtor, Method, Special};
use crate::value::Value;
use std::collections::HashMap;
use std::rc::Rc;
use svlang::ast::{self, Item, Program, Type};

/// Index of a function in [`Code::fns`].
pub(crate) type FnId = u32;

/// The CUDA/HIP thread coordinates a kernel launch binds, in the first
/// frame slots of every function.
pub(crate) const KERNEL_COORDS: [&str; 4] = ["threadIdx", "blockIdx", "blockDim", "gridDim"];

/// A whole resolved program.
pub(crate) struct Code {
    /// Functions with a body; a later definition of a name replaces an
    /// earlier one.
    pub fns: Vec<Rc<FnCode>>,
    /// Field names and default values of each struct.
    pub structs: Vec<Vec<(String, Value)>>,
    /// Global initialisers in declaration order.
    pub globals: Vec<GlobalInit>,
    /// Number of distinct global names (the global slot count).
    pub n_globals: usize,
    pub main: Option<FnId>,
}

/// One global declaration.
pub(crate) struct GlobalInit {
    pub index: u32,
    pub file: u32,
    pub init: Option<Expr>,
    pub default: Value,
}

/// A function body and its frame layout: the kernel coordinates, then the
/// parameters, then the locals.
pub(crate) struct FnCode {
    pub name: String,
    pub file: u32,
    pub line: u32,
    pub n_params: usize,
    pub n_slots: usize,
    pub body: Block,
}

/// A lambda body and its frame layout: the parameters, then the locals.
pub(crate) struct LambdaCode {
    /// Whether each parameter is a reference (binds the caller's slot).
    pub by_ref: Vec<bool>,
    pub n_slots: usize,
    /// File of the code the lambda was written in.
    pub file: u32,
    pub body: Block,
}

pub(crate) type Block = Box<[Stmt]>;

pub(crate) struct Stmt {
    pub line: u32,
    pub kind: StmtKind,
}

pub(crate) enum StmtKind {
    Decl { slot: u32, init: DeclInit },
    Expr(Expr),
    If(Expr, Block, Option<Block>),
    For { init: Option<Box<Stmt>>, cond: Option<Expr>, step: Option<Expr>, body: Block },
    While(Expr, Block),
    Switch(Expr, Vec<(Option<i64>, Block)>),
    Return(Option<Expr>),
    Break,
    Continue,
    Block(Block),
    Pragma(Option<Box<Stmt>>),
}

/// How a declaration gets its value.
pub(crate) enum DeclInit {
    /// An initialiser, converted to the declared type.
    Expr(Expr, Conv),
    /// A named type without initialiser: default-construct it, or take the
    /// default value when construction fails.
    Construct(Ctor, Value),
    Value(Value),
}

pub(crate) struct Expr {
    pub line: u32,
    pub kind: ExprKind,
}

pub(crate) enum ExprKind {
    Const(Value),
    Name(Box<Name>),
    Unary(UnOp, Box<Expr>),
    Binary(BinOp, Box<Expr>, Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    /// `lhs = rhs`, or `lhs op= rhs` when an operator is given.
    Assign(Option<BinOp>, Box<Expr>, Box<Expr>),
    Ternary(Box<[Expr; 3]>),
    Call(Box<Call>),
    KernelLaunch(Box<Launch>),
    Index(Box<Expr>, Box<Expr>),
    Member(Box<Expr>, String),
    /// A lambda and the enclosing variables it captures, as seen from the
    /// code that creates it.
    Lambda(Rc<LambdaCode>, Box<[Var]>),
    Cast(Conv, Box<Expr>),
    Construct(Ctor, Vec<Expr>),
    InitList(Vec<Expr>),
}

/// A possibly-qualified name in expression position.
pub(crate) struct Name {
    /// `false` for qualified names, which never denote variables.
    pub single: bool,
    pub var: Var,
    /// What the name means when no variable slot answers for it.
    pub fallback: Fallback,
    /// The name as written, `::`-joined.
    pub text: String,
}

pub(crate) enum Fallback {
    Fn(FnId),
    Value(Value),
    Undefined,
}

/// A resolved variable reference.
#[derive(Clone, Copy)]
pub(crate) struct Var {
    pub at: Loc,
    /// The global of the same name, consulted when a local or captured
    /// slot is unset (a kernel coordinate outside a launch).
    pub global: Option<u32>,
}

#[derive(Clone, Copy)]
pub(crate) enum Loc {
    /// Frame slot of the running function or lambda.
    Local(u32),
    /// Capture of the running lambda.
    Capture(u32),
    Global(u32),
    /// Not a variable.
    Free,
}

impl Var {
    const FREE: Var = Var { at: Loc::Free, global: None };
}

pub(crate) struct Call {
    /// The callee as an expression (evaluated for value callees and for
    /// the `view(i) = v` element-place form).
    pub callee: Expr,
    pub args: Vec<Expr>,
    pub target: Target,
}

pub(crate) enum Target {
    Special(Special),
    /// `base.member(args)` on a model object.
    Method(Method),
    /// A call through a name: a callable variable, a user function, an
    /// intrinsic, else a constructor.
    Path {
        func: Option<FnId>,
        intrinsic: Option<Intrinsic>,
        ctor: Ctor,
    },
    /// Any other callee expression.
    Value,
}

pub(crate) struct Launch {
    pub grid: Expr,
    pub block: Expr,
    /// The kernel, or the error its launch raises.
    pub kernel: Result<FnId, String>,
    pub args: Vec<Expr>,
}

/// Construction of a named or scalar type.
pub(crate) enum Ctor {
    Struct(u32),
    Lib(LibCtor),
    /// A scalar "constructor" is a cast: `double(n)`.
    Scalar(Conv),
    Unknown(String),
}

/// C-style conversion to a declared type.
#[derive(Clone, Copy)]
pub(crate) enum Conv {
    Int,
    Real,
    Bool,
    Keep,
}

impl Conv {
    pub fn of(ty: &Type) -> Conv {
        match ty.decayed() {
            Type::Int | Type::Long | Type::Size => Conv::Int,
            Type::Float | Type::Double => Conv::Real,
            Type::Bool => Conv::Bool,
            _ => Conv::Keep,
        }
    }

    pub fn apply(self, v: Value) -> Value {
        match self {
            Conv::Int => match v.as_int() {
                Some(i) => Value::Int(i),
                None => v,
            },
            Conv::Real => match v {
                Value::Int(i) => Value::Real(i as f64),
                other => other,
            },
            Conv::Bool => Value::Bool(v.truthy()),
            Conv::Keep => v,
        }
    }
}

/// Default value for a declared type.
pub(crate) fn default_value(ty: &Type) -> Value {
    match ty.decayed() {
        Type::Int | Type::Long | Type::Size | Type::Char => Value::Int(0),
        Type::Float | Type::Double => Value::Real(0.0),
        Type::Bool => Value::Bool(false),
        _ => Value::Unit,
    }
}

#[derive(Clone, Copy)]
pub(crate) enum UnOp {
    Inc,
    Dec,
    AddrOf,
    Deref,
    Plus,
    Neg,
    Not,
    BitNot,
    Other(&'static str),
}

impl UnOp {
    fn decode(op: &'static str) -> UnOp {
        match op {
            "++" => UnOp::Inc,
            "--" => UnOp::Dec,
            "&" => UnOp::AddrOf,
            "*" => UnOp::Deref,
            "+" => UnOp::Plus,
            "-" => UnOp::Neg,
            "!" => UnOp::Not,
            "~" => UnOp::BitNot,
            other => UnOp::Other(other),
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Shl,
    Shr,
    BitAnd,
    BitOr,
    BitXor,
    Eq,
    Ne,
    Lt,
    Gt,
    Le,
    Ge,
    Other(&'static str),
}

/// Every operator [`BinOp`] names, with its spelling.
const BIN_OPS: [(&str, BinOp); 16] = [
    ("+", BinOp::Add),
    ("-", BinOp::Sub),
    ("*", BinOp::Mul),
    ("/", BinOp::Div),
    ("%", BinOp::Rem),
    ("<<", BinOp::Shl),
    (">>", BinOp::Shr),
    ("&", BinOp::BitAnd),
    ("|", BinOp::BitOr),
    ("^", BinOp::BitXor),
    ("==", BinOp::Eq),
    ("!=", BinOp::Ne),
    ("<", BinOp::Lt),
    (">", BinOp::Gt),
    ("<=", BinOp::Le),
    (">=", BinOp::Ge),
];

impl BinOp {
    pub fn decode(op: &'static str) -> BinOp {
        BIN_OPS.iter().find(|(s, _)| *s == op).map_or(BinOp::Other(op), |&(_, b)| b)
    }

    pub fn as_str(self) -> &'static str {
        match self {
            BinOp::Other(op) => op,
            _ => BIN_OPS.iter().find(|&&(_, b)| b == self).expect("listed in BIN_OPS").0,
        }
    }
}

/// Compile `prog` for the interpreter.
pub(crate) fn resolve(prog: &Program) -> Code {
    let mut r = Resolver::default();
    let mut fns: Vec<&ast::Function> = Vec::new();
    let mut structs: Vec<&ast::StructDef> = Vec::new();
    for item in &prog.items {
        match item {
            Item::Function(f) if f.body.is_some() => match r.fns.get(f.name.as_str()) {
                Some(&id) => fns[id as usize] = f,
                None => {
                    r.fns.insert(&f.name, fns.len() as FnId);
                    fns.push(f);
                }
            },
            Item::Struct(s) => match r.structs.get(s.name.as_str()) {
                Some(&id) => structs[id as usize] = s,
                None => {
                    r.structs.insert(&s.name, structs.len() as u32);
                    structs.push(s);
                }
            },
            Item::Global(v) => {
                let n = r.globals.len() as u32;
                r.globals.entry(&v.name).or_insert(n);
            }
            _ => {}
        }
    }
    let fns = fns.into_iter().map(|f| Rc::new(r.function(f))).collect();
    let structs = structs
        .iter()
        .map(|s| s.fields.iter().map(|f| (f.name.clone(), default_value(&f.ty))).collect())
        .collect();
    let mut globals = Vec::new();
    for item in &prog.items {
        if let Item::Global(v) = item {
            r.file = v.file.0;
            r.frames.push(Frame::default());
            let init = v.init.as_ref().map(|e| r.expr(e));
            r.frames.pop();
            globals.push(GlobalInit {
                index: r.globals[v.name.as_str()],
                file: v.file.0,
                init,
                default: default_value(&v.ty),
            });
        }
    }
    Code { fns, structs, globals, n_globals: r.globals.len(), main: r.fns.get("main").copied() }
}

#[derive(Default)]
struct Resolver<'p> {
    fns: HashMap<&'p str, FnId>,
    structs: HashMap<&'p str, u32>,
    globals: HashMap<&'p str, u32>,
    /// The function frame, then one frame per enclosing lambda.
    frames: Vec<Frame<'p>>,
    /// File of the code being resolved.
    file: u32,
}

#[derive(Default)]
struct Frame<'p> {
    /// Visible bindings, innermost last.
    names: Vec<(&'p str, u32)>,
    /// `(names.len(), next)` at the entry of each open scope.
    scopes: Vec<(usize, u32)>,
    next: u32,
    max: u32,
    /// Names captured from enclosing frames, with their binding there.
    captures: Vec<(&'p str, Var)>,
}

impl<'p> Resolver<'p> {
    fn frame(&mut self) -> &mut Frame<'p> {
        self.frames.last_mut().expect("a frame is open")
    }

    fn open(&mut self) {
        let f = self.frame();
        f.scopes.push((f.names.len(), f.next));
    }

    fn close(&mut self) {
        let f = self.frame();
        let (len, next) = f.scopes.pop().expect("a scope is open");
        f.names.truncate(len);
        f.next = next;
    }

    fn declare(&mut self, name: &'p str) -> u32 {
        let f = self.frame();
        let slot = f.next;
        f.next += 1;
        f.max = f.max.max(f.next);
        f.names.push((name, slot));
        slot
    }

    fn var(&mut self, name: &'p str) -> Var {
        let at = self.lookup(self.frames.len() - 1, name);
        let global = match at {
            Loc::Local(_) | Loc::Capture(_) => self.globals.get(name).copied(),
            _ => None,
        };
        Var { at, global }
    }

    /// Where `name` lives as seen from frame `depth`; a lambda frame
    /// captures what it finds in an enclosing frame.
    fn lookup(&mut self, depth: usize, name: &'p str) -> Loc {
        let frame = &self.frames[depth];
        if let Some(&(_, slot)) = frame.names.iter().rev().find(|(n, _)| *n == name) {
            return Loc::Local(slot);
        }
        if depth > 0 {
            if let Some(k) = frame.captures.iter().position(|(n, _)| *n == name) {
                return Loc::Capture(k as u32);
            }
            let outer = self.lookup(depth - 1, name);
            if let Loc::Local(_) | Loc::Capture(_) = outer {
                let global = self.globals.get(name).copied();
                let caps = &mut self.frames[depth].captures;
                caps.push((name, Var { at: outer, global }));
                return Loc::Capture(caps.len() as u32 - 1);
            }
            return outer;
        }
        self.globals.get(name).map_or(Loc::Free, |&g| Loc::Global(g))
    }

    fn function(&mut self, f: &'p ast::Function) -> FnCode {
        self.file = f.file.0;
        self.frames.push(Frame::default());
        self.open();
        for name in KERNEL_COORDS {
            self.declare(name);
        }
        for p in &f.params {
            self.declare(&p.name);
        }
        let body = self.block(f.body.as_ref().expect("only functions with a body are resolved"));
        self.close();
        let frame = self.frames.pop().expect("function frame");
        FnCode {
            name: f.name.clone(),
            file: f.file.0,
            line: f.line,
            n_params: f.params.len(),
            n_slots: frame.max as usize,
            body,
        }
    }

    fn block(&mut self, b: &'p ast::Block) -> Block {
        self.open();
        let stmts = self.stmts(&b.stmts);
        self.close();
        stmts
    }

    fn stmts(&mut self, stmts: &'p [ast::Stmt]) -> Block {
        stmts.iter().map(|s| self.stmt(s)).collect()
    }

    fn stmt(&mut self, s: &'p ast::Stmt) -> Stmt {
        use ast::Stmt as S;
        let kind = match s {
            S::Decl(v) => {
                let init = match &v.init {
                    Some(e) => DeclInit::Expr(self.expr(e), Conv::of(&v.ty)),
                    None => match v.ty.decayed() {
                        Type::Named { .. } => {
                            DeclInit::Construct(self.ctor(&v.ty), default_value(&v.ty))
                        }
                        _ => DeclInit::Value(default_value(&v.ty)),
                    },
                };
                StmtKind::Decl { slot: self.declare(&v.name), init }
            }
            S::Expr { expr, .. } => StmtKind::Expr(self.expr(expr)),
            S::If { cond, then_blk, else_blk, .. } => StmtKind::If(
                self.expr(cond),
                self.block(then_blk),
                else_blk.as_ref().map(|b| self.block(b)),
            ),
            S::For { init, cond, step, body, .. } => {
                self.open();
                let init = init.as_ref().map(|i| Box::new(self.stmt(i)));
                let cond = cond.as_ref().map(|c| self.expr(c));
                let step = step.as_ref().map(|st| self.expr(st));
                let body = self.block(body);
                self.close();
                StmtKind::For { init, cond, step, body }
            }
            S::While { cond, body, .. } => StmtKind::While(self.expr(cond), self.block(body)),
            S::Switch { scrutinee, arms, .. } => StmtKind::Switch(
                self.expr(scrutinee),
                arms.iter().map(|a| (a.value, self.stmts(&a.stmts))).collect(),
            ),
            S::Return { expr, .. } => StmtKind::Return(expr.as_ref().map(|e| self.expr(e))),
            S::Break { .. } => StmtKind::Break,
            S::Continue { .. } => StmtKind::Continue,
            S::Block(b) => StmtKind::Block(self.block(b)),
            S::Pragma { stmt, .. } => {
                StmtKind::Pragma(stmt.as_ref().map(|s| Box::new(self.stmt(s))))
            }
        };
        Stmt { line: s.line(), kind }
    }

    fn exprs(&mut self, es: &'p [ast::Expr]) -> Vec<Expr> {
        es.iter().map(|e| self.expr(e)).collect()
    }

    fn boxed(&mut self, e: &'p ast::Expr) -> Box<Expr> {
        Box::new(self.expr(e))
    }

    fn expr(&mut self, e: &'p ast::Expr) -> Expr {
        use ast::ExprKind as E;
        let kind = match &e.kind {
            E::Int(v) => ExprKind::Const(Value::Int(*v)),
            E::Real(v) => ExprKind::Const(Value::Real(*v)),
            E::Str(s) => ExprKind::Const(Value::Str(Rc::from(s.as_str()))),
            E::Char(c) => ExprKind::Const(Value::Int(*c as i64)),
            E::Bool(b) => ExprKind::Const(Value::Bool(*b)),
            E::Path(p) => ExprKind::Name(Box::new(self.name(p))),
            E::Unary { op, expr, .. } => ExprKind::Unary(UnOp::decode(op), self.boxed(expr)),
            E::Binary { op: "&&", lhs, rhs } => ExprKind::And(self.boxed(lhs), self.boxed(rhs)),
            E::Binary { op: "||", lhs, rhs } => ExprKind::Or(self.boxed(lhs), self.boxed(rhs)),
            E::Binary { op, lhs, rhs } => {
                ExprKind::Binary(BinOp::decode(op), self.boxed(lhs), self.boxed(rhs))
            }
            E::Assign { op, lhs, rhs } => {
                let op = (*op != "=").then(|| BinOp::decode(op.trim_end_matches('=')));
                ExprKind::Assign(op, self.boxed(lhs), self.boxed(rhs))
            }
            E::Ternary { cond, then_e, else_e } => {
                ExprKind::Ternary(Box::new([self.expr(cond), self.expr(then_e), self.expr(else_e)]))
            }
            E::Call { callee, targs, args } => {
                ExprKind::Call(Box::new(self.call(callee, targs, args)))
            }
            E::KernelLaunch { callee, grid, block, args } => {
                let kernel = match &callee.kind {
                    E::Path(p) => match self.fns.get(p[0].as_str()) {
                        Some(&id) => Ok(id),
                        None => Err(format!("undefined kernel {}", p[0])),
                    },
                    _ => Err("kernel launch target must be a name".to_string()),
                };
                ExprKind::KernelLaunch(Box::new(Launch {
                    grid: self.expr(grid),
                    block: self.expr(block),
                    kernel,
                    args: self.exprs(args),
                }))
            }
            E::Index { base, index } => ExprKind::Index(self.boxed(base), self.boxed(index)),
            E::Member { base, member, .. } => ExprKind::Member(self.boxed(base), member.clone()),
            E::Lambda { params, body, .. } => self.lambda(params, body),
            E::Cast { ty, expr } => ExprKind::Cast(Conv::of(ty), self.boxed(expr)),
            E::Construct { ty, args, .. } => ExprKind::Construct(self.ctor(ty), self.exprs(args)),
            E::InitList(items) => ExprKind::InitList(self.exprs(items)),
        };
        Expr { line: e.line, kind }
    }

    fn name(&mut self, p: &'p [String]) -> Name {
        let single = p.len() == 1;
        let var = if single { self.var(&p[0]) } else { Var::FREE };
        let func = if single { self.fns.get(p[0].as_str()).copied() } else { None };
        let fallback = match (func, intrinsics::path_value(p)) {
            (Some(id), _) => Fallback::Fn(id),
            (None, Some(v)) => Fallback::Value(v),
            (None, None) => Fallback::Undefined,
        };
        Name { single, var, fallback, text: p.join("::") }
    }

    fn call(&mut self, callee: &'p ast::Expr, targs: &[Type], args: &'p [ast::Expr]) -> Call {
        let target = match &callee.kind {
            ast::ExprKind::Path(p) => match Special::decode(&p.join("::"), targs) {
                Some(special) => Target::Special(special),
                None => Target::Path {
                    func: if p.len() == 1 { self.fns.get(p[0].as_str()).copied() } else { None },
                    intrinsic: Intrinsic::decode(p),
                    ctor: self.ctor(&Type::Named { path: p.to_vec(), args: targs.to_vec() }),
                },
            },
            ast::ExprKind::Member { member, .. } => Target::Method(Method::decode(member)),
            _ => Target::Value,
        };
        Call { callee: self.expr(callee), args: self.exprs(args), target }
    }

    fn lambda(&mut self, params: &'p [ast::Param], body: &'p ast::Block) -> ExprKind {
        self.frames.push(Frame::default());
        self.open();
        let by_ref = params
            .iter()
            .map(|p| {
                self.declare(&p.name);
                matches!(p.ty, Type::Ref(_))
            })
            .collect();
        let body = self.block(body);
        self.close();
        let frame = self.frames.pop().expect("lambda frame");
        let code = LambdaCode { by_ref, n_slots: frame.max as usize, file: self.file, body };
        ExprKind::Lambda(Rc::new(code), frame.captures.into_iter().map(|(_, v)| v).collect())
    }

    /// The constructor `ty(args)` denotes: a struct named by an unqualified,
    /// undecorated type, else a library type or a scalar cast.
    fn ctor(&self, ty: &Type) -> Ctor {
        if let Type::Named { path, .. } = ty {
            if let [name] = path.as_slice() {
                if let Some(&id) = self.structs.get(name.as_str()) {
                    return Ctor::Struct(id);
                }
            }
        }
        match ty.decayed() {
            Type::Named { path, .. } => {
                let joined = path.join("::");
                LibCtor::decode(&joined).map_or(Ctor::Unknown(joined), Ctor::Lib)
            }
            _ => Ctor::Scalar(Conv::of(ty)),
        }
    }
}
