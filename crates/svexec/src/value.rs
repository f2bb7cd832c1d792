//! Runtime values for the dialect interpreter.
//!
//! Values are dynamically typed; variables live in reference-counted slots
//! so that C++ references, lambda captures and array handles alias the way
//! the source expects.  "Library" objects of the programming models (SYCL
//! queues/buffers/accessors, Kokkos views, CUDA dim3…) are [`Native`]
//! values whose behaviour the intrinsics layer implements.

use crate::code::{BinOp, FnCode, LambdaCode};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// A shared mutable slot (variable binding, array element store).
pub(crate) type Slot = Rc<RefCell<Value>>;

/// A shared array payload.
pub(crate) type ArrayRef = Rc<RefCell<Vec<Value>>>;

/// A fresh slot holding `v`.
pub(crate) fn new_slot(v: Value) -> Slot {
    Rc::new(RefCell::new(v))
}

/// Runtime value.
#[derive(Clone)]
pub(crate) enum Value {
    Unit,
    Int(i64),
    Real(f64),
    Bool(bool),
    Str(Rc<str>),
    /// Heap array (malloc/cudaMalloc/views/buffers all share this).
    Array(ArrayRef),
    /// A user-struct instance: named field slots.
    Object(Rc<HashMap<String, Slot>>),
    /// A lambda closure.
    Closure(Rc<Closure>),
    /// A free function (function pointer).
    FnRef(Rc<FnCode>),
    /// An operator functor (`std::plus`, `std::multiplies`).
    Op(BinOp),
    /// Programming-model library object.
    Native(Native),
}

/// A lambda with the slots of the enclosing variables its body names.
pub(crate) struct Closure {
    pub code: Rc<LambdaCode>,
    /// One entry per [`crate::code::Loc::Capture`] index; `None` where the
    /// variable had no slot when the lambda was created.
    pub captures: Box<[Option<Slot>]>,
}

/// Library objects of the supported programming models.
#[derive(Clone)]
pub(crate) enum Native {
    /// SYCL queue / TBB arena / generic execution context.
    Queue,
    /// SYCL command-group handler.
    Handler,
    /// SYCL buffer over a host array.
    Buffer(ArrayRef),
    /// SYCL accessor into a buffer.
    Accessor(ArrayRef),
    /// sycl::range / Kokkos::RangePolicy — an iteration extent.
    Range(i64),
    /// Kokkos::View over an array.
    View(ArrayRef),
    /// CUDA dim3 / threadIdx-style coordinate.
    Dim3 { x: i64 },
    /// std::execution policy (par, par_unseq, seq).
    ExecPolicy,
    /// A device handle (sycl::device, hipDevice…).
    Device,
}

impl Value {
    /// Numeric coercion to f64 (ints promote).
    pub fn as_real(&self) -> Option<f64> {
        match self {
            Value::Real(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            Value::Bool(b) => Some(f64::from(*b)),
            _ => None,
        }
    }

    /// Integer view (reals truncate, as C casts do).
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Real(v) => Some(*v as i64),
            Value::Bool(b) => Some(i64::from(*b)),
            Value::Native(Native::Dim3 { x }) => Some(*x),
            _ => None,
        }
    }

    /// Truthiness for conditions.
    pub fn truthy(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            Value::Int(v) => *v != 0,
            Value::Real(v) => *v != 0.0,
            Value::Unit => false,
            _ => true,
        }
    }

    /// The array handle if this value wraps one (arrays, buffers,
    /// accessors, views all expose their payload).
    pub fn array(&self) -> Option<ArrayRef> {
        match self {
            Value::Array(a) => Some(a.clone()),
            Value::Native(Native::Buffer(a) | Native::Accessor(a) | Native::View(a)) => {
                Some(a.clone())
            }
            _ => None,
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "()"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Real(v) => write!(f, "{v}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Array(a) => write!(f, "array[{}]", a.borrow().len()),
            Value::Object(_) => write!(f, "object"),
            Value::Closure(_) => write!(f, "closure"),
            Value::FnRef(func) => write!(f, "fn {}", func.name),
            Value::Op(op) => write!(f, "fn {}", op.as_str()),
            Value::Native(n) => write!(f, "native {}", n.kind()),
        }
    }
}

impl Native {
    pub fn kind(&self) -> &'static str {
        match self {
            Native::Queue => "queue",
            Native::Handler => "handler",
            Native::Buffer(_) => "buffer",
            Native::Accessor(_) => "accessor",
            Native::Range(_) => "range",
            Native::View(_) => "view",
            Native::Dim3 { .. } => "dim3",
            Native::ExecPolicy => "policy",
            Native::Device => "device",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coercions() {
        assert_eq!(Value::Int(3).as_real(), Some(3.0));
        assert_eq!(Value::Real(2.7).as_int(), Some(2));
        assert_eq!(Value::Bool(true).as_real(), Some(1.0));
        assert!(Value::Str("x".into()).as_real().is_none());
        assert_eq!(Value::Native(Native::Dim3 { x: 5 }).as_int(), Some(5));
    }

    #[test]
    fn truthiness() {
        assert!(Value::Int(1).truthy());
        assert!(!Value::Int(0).truthy());
        assert!(!Value::Unit.truthy());
        assert!(Value::Str("".into()).truthy());
    }

    #[test]
    fn arrays_share_payload() {
        let arr: ArrayRef = Rc::new(RefCell::new(vec![Value::Real(0.0); 4]));
        let a = Value::Array(arr.clone());
        let buf = Value::Native(Native::Buffer(arr));
        a.array().unwrap().borrow_mut()[0] = Value::Real(42.0);
        assert_eq!(buf.array().unwrap().borrow()[0].as_real(), Some(42.0));
    }
}
