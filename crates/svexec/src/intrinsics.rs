//! Built-in functions and programming-model runtimes.
//!
//! Each heterogeneous model's library surface is implemented here with
//! sequential semantics: CUDA/HIP memory + launch APIs, SYCL queues,
//! buffers, accessors and USM, Kokkos views and parallel patterns, TBB
//! functional loops, C++17 parallel algorithms, OpenMP runtime queries,
//! plus libc/libm basics (`malloc`, `printf`, math).  This is what lets the
//! corpus mini-apps *actually run* and verify in every model — the built-in
//! verification the paper's artefact description requires ("Each mini-app
//! contains built-in verification for correctness").

use crate::code::{BinOp, Ctor, Expr};
use crate::interp::{binary_op, ExecError, ExecResult, Interp};
use crate::value::{ArrayRef, Native, Value};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use svlang::ast::Type;

fn new_array(n: usize) -> ArrayRef {
    Rc::new(RefCell::new(vec![Value::Real(0.0); n]))
}

fn int_arg(args: &[Value], i: usize, line: u32) -> ExecResult<i64> {
    args.get(i)
        .and_then(Value::as_int)
        .ok_or_else(|| ExecError::new(format!("argument {i} must be integral"), line))
}

fn real_arg(args: &[Value], i: usize, line: u32) -> ExecResult<f64> {
    args.get(i)
        .and_then(Value::as_real)
        .ok_or_else(|| ExecError::new(format!("argument {i} must be numeric"), line))
}

/// Size of a dialect type in bytes (for `sizeof` / malloc arithmetic).
fn size_of(ty: &Type) -> i64 {
    match ty.decayed() {
        Type::Char | Type::Bool => 1,
        Type::Int | Type::Float => 4,
        _ => 8,
    }
}

/// Values reachable as bare qualified names.
pub(crate) fn path_value(p: &[String]) -> Option<Value> {
    let joined = p.join("::");
    match joined.as_str() {
        "std::execution::par" | "std::execution::par_unseq" | "std::execution::seq" => {
            Some(Value::Native(Native::ExecPolicy))
        }
        "sycl::gpu_selector_v" | "sycl::default_selector_v" | "sycl::cpu_selector_v" => {
            Some(Value::Native(Native::Device))
        }
        "M_PI" => Some(Value::Real(std::f64::consts::PI)),
        _ => None,
    }
}

/// Calls that need raw argument expressions (out-parameters or reduction
/// targets), recognised by the callee's full name before anything else.
#[derive(Clone, Copy)]
pub(crate) enum Special {
    /// `cudaMalloc((void**)&d_a, bytes)` / `hipMalloc(&d_a, bytes)`.
    DeviceMalloc,
    /// `Kokkos::parallel_reduce(n, lambda(i, &acc), target)`.
    KokkosReduce,
    /// `cudaGetDeviceCount(&n)` / `hipGetDeviceCount(&n)`.
    DeviceCount,
    /// `cudaGetDevice(&d)` / `hipGetDevice(&d)`.
    Device,
    /// `sizeof(T)`: the parser passes the type as a template argument.
    SizeofType(i64),
    /// `sizeof(expr)`.
    SizeofExpr,
}

impl Special {
    pub fn decode(joined: &str, targs: &[Type]) -> Option<Special> {
        Some(match joined {
            "cudaMalloc" | "hipMalloc" => Special::DeviceMalloc,
            "Kokkos::parallel_reduce" => Special::KokkosReduce,
            "hipGetDeviceCount" | "cudaGetDeviceCount" => Special::DeviceCount,
            "hipGetDevice" | "cudaGetDevice" => Special::Device,
            "sizeof" => match targs.first() {
                Some(t) => Special::SizeofType(size_of(t)),
                None => Special::SizeofExpr,
            },
            _ => return None,
        })
    }
}

/// Run a special form.
pub(crate) fn special_form(
    it: &mut Interp,
    special: Special,
    args: &[Expr],
    line: u32,
) -> ExecResult<Value> {
    match special {
        Special::DeviceMalloc => {
            let slot = it
                .out_param(&args[0])
                .ok_or_else(|| ExecError::new("cudaMalloc needs &pointer", line))?;
            let bytes = it
                .eval(&args[1])?
                .as_int()
                .ok_or_else(|| ExecError::new("bad byte count", line))?;
            *slot.borrow_mut() = Value::Array(new_array((bytes / 8) as usize));
            Ok(Value::Int(0))
        }
        Special::KokkosReduce => {
            let n = range_extent(&it.eval(&args[0])?, line)?;
            let Value::Closure(c) = it.eval(&args[1])? else {
                return Err(ExecError::new("parallel_reduce needs a lambda", line));
            };
            let acc = Rc::new(RefCell::new(Value::Real(0.0)));
            for i in 0..n {
                it.call_closure(
                    &c,
                    vec![Value::Int(i), Value::Real(0.0)],
                    vec![None, Some(acc.clone())],
                )?;
            }
            let result = acc.borrow().clone();
            if let Some(target) = args.get(2).and_then(|a| it.out_param(a)) {
                *target.borrow_mut() = result.clone();
            }
            Ok(result)
        }
        Special::DeviceCount => {
            if let Some(slot) = it.out_param(&args[0]) {
                *slot.borrow_mut() = Value::Int(1);
            }
            Ok(Value::Int(0))
        }
        Special::Device => {
            if let Some(slot) = it.out_param(&args[0]) {
                *slot.borrow_mut() = Value::Int(0);
            }
            Ok(Value::Int(0))
        }
        Special::SizeofType(size) => Ok(Value::Int(size)),
        Special::SizeofExpr => {
            let v = it.eval(&args[0])?;
            Ok(Value::Int(match v {
                Value::Real(_) => 8,
                Value::Int(_) => 4,
                _ => 8,
            }))
        }
    }
}

fn range_extent(v: &Value, line: u32) -> ExecResult<i64> {
    match v {
        Value::Int(n) => Ok(*n),
        Value::Native(Native::Range(n)) => Ok(*n),
        other => Err(ExecError::new(format!("not an iteration range: {other:?}"), line)),
    }
}

/// Apply a "binary functor" value: `std::plus` (an operator), a closure,
/// or a named function.
fn apply_functor(it: &mut Interp, f: &Value, a: Value, b: Value, line: u32) -> ExecResult<Value> {
    match f {
        Value::Op(op) => binary_op(*op, &a, &b, line),
        // Names of up to two characters are taken for operator names.
        Value::FnRef(func) if func.name.len() <= 2 => {
            Err(ExecError::new(format!("unsupported operator {}", func.name), line))
        }
        Value::FnRef(func) => it.call_fn(func, vec![a, b]),
        Value::Closure(c) => it.call_closure(c, vec![a, b], vec![None, None]),
        other => Err(ExecError::new(format!("not a functor: {other:?}"), line)),
    }
}

fn call_unary(it: &mut Interp, f: &Value, a: Value, line: u32) -> ExecResult<Value> {
    match f {
        Value::Closure(c) => it.call_closure(c, vec![a], vec![None]),
        Value::FnRef(_) | Value::Op(_) => it.call_fn_value(f, vec![a], line),
        other => Err(ExecError::new(format!("not callable: {other:?}"), line)),
    }
}

/// Free-function intrinsics, recognised by full or last path segment.
#[derive(Clone, Copy)]
pub(crate) enum Intrinsic {
    Sqrt,
    Abs,
    Sin,
    Cos,
    Exp,
    Log,
    Tanh,
    Floor,
    Ceil,
    Pow,
    Fmin,
    Fmax,
    Min,
    Max,
    Printf,
    Malloc,
    Exit,
    Wtime,
    /// `omp_get_max_threads` / `omp_get_num_threads`.
    OneThread,
    ThreadNum,
    Memcpy,
    /// Device management calls that succeed with status 0.
    Status0,
    UsmMalloc,
    /// Calls with no effect and no value (`free`, `Kokkos::fence`…).
    Nothing,
    KokkosFor,
    TbbFor,
    TbbReduce,
    ForEachN,
    ForEach,
    TransformReduce,
}

impl Intrinsic {
    pub fn decode(path: &[String]) -> Option<Intrinsic> {
        use Intrinsic::*;
        let joined = path.join("::");
        let last = path.last().map(String::as_str).unwrap_or("");
        Some(match (joined.as_str(), last) {
            (_, "sqrt") => Sqrt,
            (_, "fabs" | "abs") => Abs,
            (_, "sin") => Sin,
            (_, "cos") => Cos,
            (_, "exp") => Exp,
            (_, "log") => Log,
            (_, "tanh") => Tanh,
            (_, "floor") => Floor,
            (_, "ceil") => Ceil,
            (_, "pow") => Pow,
            (_, "fmin") => Fmin,
            (_, "fmax") => Fmax,
            (_, "min") => Min,
            (_, "max") => Max,
            (_, "printf") => Printf,
            ("malloc" | "std::malloc", _) => Malloc,
            ("free" | "std::free", _) => Nothing,
            (_, "exit") => Exit,
            ("omp_get_wtime", _) => Wtime,
            ("omp_get_max_threads" | "omp_get_num_threads", _) => OneThread,
            ("omp_get_thread_num", _) => ThreadNum,
            ("omp_set_num_threads", _) => Nothing,
            ("cudaMemcpy" | "hipMemcpy", _) => Memcpy,
            (
                "cudaFree"
                | "hipFree"
                | "cudaDeviceSynchronize"
                | "hipDeviceSynchronize"
                | "hipSetDevice"
                | "cudaSetDevice"
                | "hipDeviceReset",
                _,
            ) => Status0,
            ("sycl::malloc_shared" | "sycl::malloc_device" | "sycl::malloc_host", _) => UsmMalloc,
            ("sycl::free" | "Kokkos::initialize" | "Kokkos::finalize" | "Kokkos::fence", _) => {
                Nothing
            }
            ("Kokkos::parallel_for", _) => KokkosFor,
            ("tbb::parallel_for", _) => TbbFor,
            ("tbb::parallel_reduce", _) => TbbReduce,
            ("std::for_each_n", _) => ForEachN,
            ("std::for_each", _) => ForEach,
            ("std::transform_reduce", _) => TransformReduce,
            _ => return None,
        })
    }
}

/// `memcpy(dst, src, bytes)` over array payloads.
fn memcpy(args: &[Value], line: u32) -> ExecResult<()> {
    let dst = args[0].array().ok_or_else(|| ExecError::new("memcpy dst", line))?;
    let src = args[1].array().ok_or_else(|| ExecError::new("memcpy src", line))?;
    let n = (int_arg(args, 2, line)? / 8) as usize;
    let srcv = src.borrow();
    let mut dstv = dst.borrow_mut();
    for i in 0..n.min(srcv.len()).min(dstv.len()) {
        dstv[i] = srcv[i].clone();
    }
    Ok(())
}

/// Free-function intrinsics with evaluated arguments.
pub(crate) fn free_call(
    it: &mut Interp,
    intrinsic: Intrinsic,
    args: &[Value],
    line: u32,
) -> ExecResult<Value> {
    use Intrinsic::*;
    let real1 = |f: fn(f64) -> f64| Ok(Value::Real(f(real_arg(args, 0, line)?)));
    let real2 = |f: fn(f64, f64) -> f64| {
        Ok(Value::Real(f(real_arg(args, 0, line)?, real_arg(args, 1, line)?)))
    };
    match intrinsic {
        // ---- math -------------------------------------------------------
        Sqrt => real1(f64::sqrt),
        Abs => match &args[0] {
            Value::Int(v) => Ok(Value::Int(v.abs())),
            other => Ok(Value::Real(
                other.as_real().ok_or_else(|| ExecError::new("abs arg", line))?.abs(),
            )),
        },
        Sin => real1(f64::sin),
        Cos => real1(f64::cos),
        Exp => real1(f64::exp),
        Log => real1(f64::ln),
        Tanh => real1(f64::tanh),
        Floor => real1(f64::floor),
        Ceil => real1(f64::ceil),
        Pow => real2(f64::powf),
        Fmin => real2(f64::min),
        Fmax => real2(f64::max),
        Min => {
            if let (Value::Int(a), Value::Int(b)) = (&args[0], &args[1]) {
                Ok(Value::Int(*a.min(b)))
            } else {
                real2(f64::min)
            }
        }
        Max => {
            if let (Value::Int(a), Value::Int(b)) = (&args[0], &args[1]) {
                Ok(Value::Int(*a.max(b)))
            } else {
                real2(f64::max)
            }
        }

        // ---- libc -------------------------------------------------------
        Printf => {
            let Value::Str(fmt) = &args[0] else {
                return Err(ExecError::new("printf needs a format string", line));
            };
            let text = format_printf(fmt, &args[1..], line)?;
            it.output.push_str(&text);
            Ok(Value::Int(text.len() as i64))
        }
        Malloc => {
            let bytes = int_arg(args, 0, line)?;
            Ok(Value::Array(new_array((bytes / 8) as usize)))
        }
        Exit => Err(ExecError::new("program called exit()", line)),

        // ---- OpenMP runtime ----------------------------------------------
        Wtime => {
            it.time += 1.0e-6;
            Ok(Value::Real(it.time))
        }
        OneThread => Ok(Value::Int(1)),
        ThreadNum => Ok(Value::Int(0)),

        // ---- CUDA / HIP ---------------------------------------------------
        Memcpy => {
            memcpy(args, line)?;
            Ok(Value::Int(0))
        }
        Status0 => Ok(Value::Int(0)),

        // ---- SYCL USM ------------------------------------------------------
        UsmMalloc => {
            let n = int_arg(args, 0, line)?;
            Ok(Value::Array(new_array(n as usize)))
        }
        Nothing => Ok(Value::Unit),

        // ---- Kokkos ---------------------------------------------------------
        KokkosFor => {
            let n = range_extent(&args[0], line)?;
            let f = &args[1];
            for i in 0..n {
                call_unary(it, f, Value::Int(i), line)?;
            }
            Ok(Value::Unit)
        }

        // ---- TBB ---------------------------------------------------------------
        TbbFor => {
            let lo = int_arg(args, 0, line)?;
            let hi = int_arg(args, 1, line)?;
            let f = &args[2];
            for i in lo..hi {
                call_unary(it, f, Value::Int(i), line)?;
            }
            Ok(Value::Unit)
        }
        TbbReduce => {
            // tbb::parallel_reduce(lo, hi, init, body(i, acc))
            let lo = int_arg(args, 0, line)?;
            let hi = int_arg(args, 1, line)?;
            let mut acc = args[2].clone();
            let f = &args[3];
            for i in lo..hi {
                acc = apply_functor(it, f, Value::Int(i), acc, line)?;
            }
            Ok(acc)
        }

        // ---- C++17 parallel algorithms (StdPar) -------------------------------
        ForEachN => {
            // (policy, first_index, n, fn)
            let start = int_arg(args, 1, line)?;
            let n = int_arg(args, 2, line)?;
            let f = &args[3];
            for i in start..start + n {
                call_unary(it, f, Value::Int(i), line)?;
            }
            Ok(Value::Unit)
        }
        ForEach => {
            // (policy, lo, hi, fn) over counting indices
            let lo = int_arg(args, 1, line)?;
            let hi = int_arg(args, 2, line)?;
            let f = &args[3];
            for i in lo..hi {
                call_unary(it, f, Value::Int(i), line)?;
            }
            Ok(Value::Unit)
        }
        TransformReduce => {
            // (policy, lo, hi, init, reduce, transform) over counting indices
            let lo = int_arg(args, 1, line)?;
            let hi = int_arg(args, 2, line)?;
            let mut acc = args[3].clone();
            let (red, tr) = (&args[4], &args[5]);
            for i in lo..hi {
                let t = call_unary(it, tr, Value::Int(i), line)?;
                acc = apply_functor(it, red, acc, t, line)?;
            }
            Ok(acc)
        }
    }
}

/// Methods of model objects, by name.
#[derive(Clone, Copy)]
pub(crate) enum Method {
    Submit,
    ParallelFor,
    SingleTask,
    Wait,
    Memcpy,
    GetDevice,
    GetAccess,
    Size,
    Other,
}

impl Method {
    pub fn decode(name: &str) -> Method {
        match name {
            "submit" => Method::Submit,
            "parallel_for" => Method::ParallelFor,
            "single_task" => Method::SingleTask,
            "wait" | "wait_and_throw" => Method::Wait,
            "memcpy" => Method::Memcpy,
            "get_device" => Method::GetDevice,
            "get_access" => Method::GetAccess,
            "size" => Method::Size,
            _ => Method::Other,
        }
    }
}

/// Method calls on model objects.
pub(crate) fn member_call(
    it: &mut Interp,
    recv: &Value,
    method: Method,
    name: &str,
    args: Vec<Value>,
    line: u32,
) -> ExecResult<Value> {
    use Native::{Buffer, Handler, Queue};
    match (recv, method) {
        // SYCL queue
        (Value::Native(Queue), Method::Submit) => {
            let Value::Closure(c) = &args[0] else {
                return Err(ExecError::new("submit needs a command group lambda", line));
            };
            it.call_closure(c, vec![Value::Native(Handler)], vec![None])
        }
        (Value::Native(Queue | Handler), Method::ParallelFor) => {
            let n = range_extent(&args[0], line)?;
            let f =
                args.get(1).ok_or_else(|| ExecError::new("parallel_for needs a kernel", line))?;
            for i in 0..n {
                call_unary(it, f, Value::Int(i), line)?;
            }
            Ok(Value::Unit)
        }
        (Value::Native(Queue | Handler), Method::SingleTask) => {
            let Value::Closure(c) = &args[0] else {
                return Err(ExecError::new("single_task needs a lambda", line));
            };
            it.call_closure(c, vec![], vec![])
        }
        (Value::Native(Queue), Method::Wait) => Ok(Value::Unit),
        (Value::Native(Queue), Method::Memcpy) => {
            memcpy(&args, line)?;
            Ok(Value::Unit)
        }
        (Value::Native(Queue), Method::GetDevice) => Ok(Value::Native(Native::Device)),
        // SYCL buffer
        (Value::Native(Buffer(a)), Method::GetAccess) => {
            Ok(Value::Native(Native::Accessor(a.clone())))
        }
        // Arrays
        (Value::Array(a), Method::Size) => Ok(Value::Int(a.borrow().len() as i64)),
        (recv, _) => Err(ExecError::new(format!("no method {name} on {recv:?}"), line)),
    }
}

/// Library types with a constructor.
#[derive(Clone, Copy)]
pub(crate) enum LibCtor {
    Queue,
    Device,
    Range,
    Buffer,
    Accessor,
    View,
    RangePolicy,
    Dim3,
    Plus,
    Multiplies,
}

impl LibCtor {
    pub fn decode(joined: &str) -> Option<LibCtor> {
        Some(match joined {
            "sycl::queue" => LibCtor::Queue,
            "sycl::device" | "sycl::gpu_selector" | "sycl::default_selector" => LibCtor::Device,
            "sycl::range" | "sycl::nd_range" => LibCtor::Range,
            "sycl::buffer" => LibCtor::Buffer,
            "sycl::accessor" => LibCtor::Accessor,
            "Kokkos::View" => LibCtor::View,
            "Kokkos::RangePolicy" => LibCtor::RangePolicy,
            "dim3" => LibCtor::Dim3,
            "std::plus" => LibCtor::Plus,
            "std::multiplies" => LibCtor::Multiplies,
            _ => return None,
        })
    }
}

/// Construct a value from evaluated arguments: a user struct, a library
/// type, or a scalar cast.
pub(crate) fn construct(
    it: &Interp,
    ctor: &Ctor,
    args: Vec<Value>,
    line: u32,
) -> ExecResult<Value> {
    let lib = match ctor {
        Ctor::Struct(id) => {
            let mut fields = HashMap::new();
            for (i, (name, default)) in it.code.structs[*id as usize].iter().enumerate() {
                let v = args.get(i).cloned().unwrap_or_else(|| default.clone());
                fields.insert(name.clone(), Rc::new(RefCell::new(v)));
            }
            return Ok(Value::Object(Rc::new(fields)));
        }
        Ctor::Scalar(conv) => return Ok(conv.apply(args.into_iter().next().unwrap_or(Value::Unit))),
        Ctor::Unknown(name) => {
            return Err(ExecError::new(format!("unknown type constructor {name}"), line))
        }
        Ctor::Lib(lib) => *lib,
    };
    match lib {
        LibCtor::Queue => Ok(Value::Native(Native::Queue)),
        LibCtor::Device => Ok(Value::Native(Native::Device)),
        LibCtor::Range => {
            let n = args
                .first()
                .and_then(Value::as_int)
                .ok_or_else(|| ExecError::new("range extent", line))?;
            Ok(Value::Native(Native::Range(n)))
        }
        LibCtor::Buffer => {
            // buffer(host_array, n) shares the host payload; buffer(n)
            // allocates fresh.
            if let Some(a) = args.first().and_then(Value::array) {
                Ok(Value::Native(Native::Buffer(a)))
            } else {
                let n = args
                    .first()
                    .and_then(Value::as_int)
                    .ok_or_else(|| ExecError::new("buffer size", line))?;
                Ok(Value::Native(Native::Buffer(new_array(n as usize))))
            }
        }
        LibCtor::Accessor => {
            let a = args
                .first()
                .and_then(Value::array)
                .ok_or_else(|| ExecError::new("accessor needs a buffer", line))?;
            Ok(Value::Native(Native::Accessor(a)))
        }
        LibCtor::View => {
            // View("name", n)
            let n = args
                .iter()
                .find_map(Value::as_int)
                .ok_or_else(|| ExecError::new("view extent", line))?;
            Ok(Value::Native(Native::View(new_array(n as usize))))
        }
        LibCtor::RangePolicy => {
            let hi = args
                .last()
                .and_then(Value::as_int)
                .ok_or_else(|| ExecError::new("range policy", line))?;
            Ok(Value::Native(Native::Range(hi)))
        }
        LibCtor::Dim3 => {
            let x =
                args.first().and_then(Value::as_int).ok_or_else(|| ExecError::new("dim3", line))?;
            Ok(Value::Native(Native::Dim3 { x }))
        }
        LibCtor::Plus => Ok(Value::Op(BinOp::Add)),
        LibCtor::Multiplies => Ok(Value::Op(BinOp::Mul)),
    }
}

/// Minimal printf: `%d %ld %f %g %e %s %c %%` plus `%.Nf` precision.
fn format_printf(fmt: &str, args: &[Value], line: u32) -> ExecResult<String> {
    let mut out = String::new();
    let mut chars = fmt.chars().peekable();
    let mut next = 0usize;
    let take = |next: &mut usize| -> ExecResult<Value> {
        let v = args
            .get(*next)
            .cloned()
            .ok_or_else(|| ExecError::new("printf: not enough arguments", line))?;
        *next += 1;
        Ok(v)
    };
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        // Parse flags/width/precision (only precision affects output here).
        let mut precision: Option<usize> = None;
        let mut spec = chars.next().ok_or_else(|| ExecError::new("dangling %", line))?;
        while spec.is_ascii_digit() || spec == '.' || spec == '-' || spec == '+' {
            if spec == '.' {
                let mut p = 0usize;
                while chars.peek().is_some_and(|c| c.is_ascii_digit()) {
                    p = p * 10 + chars.next().unwrap().to_digit(10).unwrap() as usize;
                }
                precision = Some(p);
            }
            spec = chars.next().ok_or_else(|| ExecError::new("dangling %", line))?;
        }
        // length modifiers
        while spec == 'l' || spec == 'z' || spec == 'h' {
            spec = chars.next().ok_or_else(|| ExecError::new("dangling %", line))?;
        }
        match spec {
            '%' => out.push('%'),
            'd' | 'i' | 'u' => {
                let v = take(&mut next)?;
                out.push_str(&v.as_int().unwrap_or(0).to_string());
            }
            'f' | 'F' => {
                let v = take(&mut next)?.as_real().unwrap_or(0.0);
                out.push_str(&format!("{:.*}", precision.unwrap_or(6), v));
            }
            'e' | 'E' => {
                let v = take(&mut next)?.as_real().unwrap_or(0.0);
                out.push_str(&format!("{:.*e}", precision.unwrap_or(6), v));
            }
            'g' | 'G' => {
                let v = take(&mut next)?.as_real().unwrap_or(0.0);
                out.push_str(&format!("{v}"));
            }
            's' => {
                let v = take(&mut next)?;
                match v {
                    Value::Str(s) => out.push_str(&s),
                    other => out.push_str(&format!("{other:?}")),
                }
            }
            'c' => {
                let v = take(&mut next)?.as_int().unwrap_or(0);
                out.push(v as u8 as char);
            }
            other => return Err(ExecError::new(format!("printf: bad spec %{other}"), line)),
        }
    }
    Ok(out)
}
