//! Runtime values, kernel argument/outcome types, and type coercion.
//!
//! The single most important function here is [`coerce`]: storing a value
//! into a typed location masks integers to the location's bit width and
//! quantizes floats to the location's precision. This is exactly the
//! mechanism by which an under-estimated `fpga_uint<7>` or an undersized
//! static array silently corrupts results on "FPGA" — the divergence class
//! HeteroGen's differential testing exists to catch.

use minic::types::Type;
use std::fmt;

/// Floating-point flavor carried by a [`Value::Float`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FloatKind {
    /// IEEE binary32.
    F32,
    /// IEEE binary64 (also used for `long double` on the CPU side).
    F64,
    /// HLS custom float with the given exponent/mantissa widths.
    Custom {
        /// Exponent bits.
        exp: u16,
        /// Mantissa bits.
        mant: u16,
    },
}

/// A runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Integer with its current width/signedness.
    Int {
        /// Two's-complement value (sign-extended into i128).
        v: i128,
        /// Bit width of the holding type.
        bits: u16,
        /// Signedness of the holding type.
        signed: bool,
    },
    /// Floating-point value.
    Float {
        /// Current value (already quantized for custom kinds).
        v: f64,
        /// Precision of the holding type.
        kind: FloatKind,
    },
    /// Boolean.
    Bool(bool),
    /// Pointer: a cell address plus the element stride in cells.
    /// Address 0 is the null pointer.
    Ptr {
        /// Cell address (0 = null).
        addr: usize,
        /// Element size in cells for pointer arithmetic.
        stride: usize,
    },
    /// Handle into the machine's stream table.
    StreamRef(usize),
    /// Absence of a value (`void`).
    Unit,
}

impl Value {
    /// A 32-bit signed integer value.
    pub fn int(v: i128) -> Value {
        Value::Int {
            v: wrap_int(v, 32, true),
            bits: 32,
            signed: true,
        }
    }

    /// A double value.
    pub fn double(v: f64) -> Value {
        Value::Float {
            v,
            kind: FloatKind::F64,
        }
    }

    /// The null pointer.
    pub fn null() -> Value {
        Value::Ptr { addr: 0, stride: 1 }
    }

    /// Truthiness under C rules.
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Int { v, .. } => *v != 0,
            Value::Float { v, .. } => *v != 0.0,
            Value::Bool(b) => *b,
            Value::Ptr { addr, .. } => *addr != 0,
            Value::StreamRef(_) => true,
            Value::Unit => false,
        }
    }

    /// Integer view (floats truncate, bools widen).
    pub fn as_int(&self) -> i128 {
        match self {
            Value::Int { v, .. } => *v,
            Value::Float { v, .. } => *v as i128,
            Value::Bool(b) => *b as i128,
            Value::Ptr { addr, .. } => *addr as i128,
            _ => 0,
        }
    }

    /// Float view (ints widen).
    pub fn as_f64(&self) -> f64 {
        match self {
            Value::Int { v, .. } => *v as f64,
            Value::Float { v, .. } => *v,
            Value::Bool(b) => *b as u8 as f64,
            _ => 0.0,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int { v, .. } => write!(f, "{v}"),
            Value::Float { v, .. } => write!(f, "{v}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Ptr { addr, .. } => write!(f, "ptr@{addr}"),
            Value::StreamRef(i) => write!(f, "stream#{i}"),
            Value::Unit => write!(f, "void"),
        }
    }
}

/// Wraps `v` into a two's-complement integer of the given width, then
/// sign- or zero-extends back into i128.
#[inline]
pub fn wrap_int(v: i128, bits: u16, signed: bool) -> i128 {
    // Shift the kept low bits to the top, then back down: an arithmetic
    // shift sign-extends, a logical one zero-extends.
    let shift = 128 - bits.clamp(1, 127) as u32;
    if signed {
        (v << shift) >> shift
    } else {
        (((v << shift) as u128) >> shift) as i128
    }
}

/// `value`'s integer view wrapped into an integer of the given width: the
/// integer arms of [`coerce`], and the VM's precompiled integer stores.
#[inline]
pub(crate) fn coerce_int(value: &Value, bits: u16, signed: bool) -> Value {
    Value::Int {
        v: wrap_int(value.as_int(), bits, signed),
        bits,
        signed,
    }
}

/// Quantizes an f64 to a custom float with `exp` exponent bits and `mant`
/// mantissa bits (round-to-nearest by mantissa truncation with rounding bit).
pub fn quantize_float(v: f64, exp: u16, mant: u16) -> f64 {
    if !v.is_finite() || v == 0.0 {
        return v;
    }
    let mant = mant.min(52) as u32;
    let bits = v.to_bits();
    let drop = 52 - mant;
    let quantized = if drop == 0 {
        bits
    } else {
        // Round to nearest: add half-ulp of the retained precision.
        let half = 1u64 << (drop - 1);
        let rounded = bits.wrapping_add(half);
        rounded & !((1u64 << drop) - 1)
    };
    let q = f64::from_bits(quantized);
    // Clamp the exponent range (biased exponent must fit in `exp` bits).
    let max_unbiased = (1i32 << (exp.min(14) - 1)) - 1;
    let min_unbiased = 1 - max_unbiased;
    let e = q.abs().log2().floor() as i32;
    if e > max_unbiased {
        if q > 0.0 {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        }
    } else if e < min_unbiased {
        0.0 * q.signum()
    } else {
        q
    }
}

/// Coerces a value into the representation of a target type, applying
/// integer wrapping and float quantization. Pointers pick up their stride
/// from pointer-type casts.
///
/// # Errors
///
/// Fails when a pointer coercion needs the pointee's size and `size_of`
/// cannot determine it (e.g. a cast to a pointer of an undefined struct).
pub fn coerce(
    value: Value,
    ty: &Type,
    size_of: &dyn Fn(&Type) -> Result<usize, crate::error::ExecError>,
) -> Result<Value, crate::error::ExecError> {
    Ok(match ty {
        Type::Bool => Value::Bool(value.is_truthy()),
        Type::Int { width, signed } => coerce_int(&value, width.bits(), *signed),
        Type::FpgaInt { bits, signed } => coerce_int(&value, *bits, *signed),
        Type::Float => Value::Float {
            v: value.as_f64() as f32 as f64,
            kind: FloatKind::F32,
        },
        Type::Double | Type::LongDouble => Value::Float {
            v: value.as_f64(),
            kind: FloatKind::F64,
        },
        Type::FpgaFloat { exp, mant } => Value::Float {
            v: quantize_float(value.as_f64(), *exp, *mant),
            kind: FloatKind::Custom {
                exp: *exp,
                mant: *mant,
            },
        },
        Type::Pointer(inner) => match value {
            Value::Ptr { addr, .. } => Value::Ptr {
                addr,
                stride: size_of(inner)?.max(1),
            },
            other => Value::Ptr {
                addr: other.as_int().max(0) as usize,
                stride: size_of(inner)?.max(1),
            },
        },
        // Aggregates and streams pass through unchanged.
        _ => value,
    })
}

/// A kernel-level input argument, the unit the fuzzer mutates.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Scalar integer (for any int-typed parameter).
    Int(i128),
    /// Scalar float.
    Float(f64),
    /// Array of integers (passed as in-out storage).
    IntArray(Vec<i128>),
    /// Array of floats (passed as in-out storage).
    FloatArray(Vec<f64>),
    /// Input stream contents for `hls::stream<int-like>` parameters.
    IntStream(Vec<i128>),
}

/// Arguments serialize as single-key tagged objects (`{"int": 5}`,
/// `{"int_array": [1, 2]}`) so a test corpus dumped to JSON stays
/// self-describing: the tag disambiguates an empty array from an empty
/// stream, which execute differently.
impl serde::Serialize for ArgValue {
    fn to_json_value(&self) -> serde::Value {
        use serde::Value;
        let (tag, value) = match self {
            ArgValue::Int(v) => ("int", Value::Int(*v)),
            ArgValue::Float(v) => ("float", Value::Float(*v)),
            ArgValue::IntArray(v) => (
                "int_array",
                Value::Array(v.iter().map(|x| Value::Int(*x)).collect()),
            ),
            ArgValue::FloatArray(v) => (
                "float_array",
                Value::Array(v.iter().map(|x| Value::Float(*x)).collect()),
            ),
            ArgValue::IntStream(v) => (
                "int_stream",
                Value::Array(v.iter().map(|x| Value::Int(*x)).collect()),
            ),
        };
        Value::Object(vec![(tag.to_string(), value)])
    }
}

impl ArgValue {
    /// Number of scalar elements (1 for scalars).
    pub fn len(&self) -> usize {
        match self {
            ArgValue::Int(_) | ArgValue::Float(_) => 1,
            ArgValue::IntArray(v) => v.len(),
            ArgValue::FloatArray(v) => v.len(),
            ArgValue::IntStream(v) => v.len(),
        }
    }

    /// Whether the argument holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Observable result of one kernel execution: the return value, the final
/// contents of array arguments, drained output streams, and the op count
/// feeding the latency model.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Outcome {
    /// Scalar return value rendered to a comparable form.
    pub ret: Option<ScalarOut>,
    /// Final contents of each pointer/array argument, in parameter order.
    pub arrays: Vec<Vec<ScalarOut>>,
    /// Final contents of each stream argument, in parameter order (inputs
    /// drained by the kernel appear empty; outputs carry produced values).
    pub streams: Vec<Vec<ScalarOut>>,
    /// Executed abstract operations (feeds the CPU latency model).
    pub ops: u64,
    /// Whether execution trapped (out-of-bounds, null deref, fuel, …).
    pub trapped: bool,
    /// Trap description when `trapped`.
    pub trap_reason: Option<String>,
}

/// A scalar rendered for output comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScalarOut {
    /// Integer output.
    Int(i128),
    /// Float output.
    Float(f64),
}

impl ScalarOut {
    /// Approximate equality: exact for ints, relative 1e-6 for floats.
    pub fn approx_eq(&self, other: &ScalarOut) -> bool {
        match (self, other) {
            (ScalarOut::Int(a), ScalarOut::Int(b)) => a == b,
            (ScalarOut::Float(a), ScalarOut::Float(b)) => {
                if a == b {
                    return true;
                }
                if a.is_nan() && b.is_nan() {
                    return true;
                }
                let scale = a.abs().max(b.abs()).max(1e-12);
                (a - b).abs() / scale < 1e-6
            }
            (ScalarOut::Int(a), ScalarOut::Float(b)) | (ScalarOut::Float(b), ScalarOut::Int(a)) => {
                (*a as f64 - b).abs() < 1e-9
            }
        }
    }
}

impl From<&Value> for ScalarOut {
    fn from(v: &Value) -> ScalarOut {
        match v {
            Value::Float { v, .. } => ScalarOut::Float(*v),
            other => ScalarOut::Int(other.as_int()),
        }
    }
}

impl Outcome {
    /// Whether two outcomes represent identical observable behaviour (the
    /// differential-testing oracle).
    pub fn behaviour_eq(&self, other: &Outcome) -> bool {
        if self.trapped || other.trapped {
            return self.trapped == other.trapped;
        }
        let ret_eq = match (&self.ret, &other.ret) {
            (Some(a), Some(b)) => a.approx_eq(b),
            (None, None) => true,
            _ => false,
        };
        ret_eq && vecs_eq(&self.arrays, &other.arrays) && vecs_eq(&self.streams, &other.streams)
    }
}

fn vecs_eq(a: &[Vec<ScalarOut>], b: &[Vec<ScalarOut>]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.approx_eq(q)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use minic::types::IntWidth;

    #[test]
    fn wrap_int_masks_to_width() {
        assert_eq!(wrap_int(255, 8, false), 255);
        assert_eq!(wrap_int(256, 8, false), 0);
        assert_eq!(wrap_int(130, 8, true), -126);
        assert_eq!(wrap_int(-1, 8, false), 255);
        assert_eq!(wrap_int(83, 7, false), 83);
        assert_eq!(wrap_int(128, 7, false), 0, "fpga_uint<7> wraps at 128");
    }

    /// The shift form agrees with masking the low bits and extending the
    /// sign bit by hand, at every width the clamp admits and beyond it.
    #[test]
    fn wrap_int_matches_masking() {
        fn by_mask(v: i128, bits: u16, signed: bool) -> i128 {
            let bits = bits.clamp(1, 127) as u32;
            let mask = (1u128 << bits) - 1;
            let raw = (v as u128) & mask;
            if signed && raw & (1u128 << (bits - 1)) != 0 {
                (raw | !mask) as i128
            } else {
                raw as i128
            }
        }
        let values = [
            0,
            1,
            -1,
            83,
            128,
            -129,
            i32::MAX as i128,
            i32::MIN as i128,
            1 << 40,
            -(1 << 40) - 7,
            i64::MIN as i128,
            i128::MAX,
            i128::MIN,
        ];
        for bits in 0..=130u16 {
            for &v in &values {
                for signed in [false, true] {
                    assert_eq!(
                        wrap_int(v, bits, signed),
                        by_mask(v, bits, signed),
                        "wrap_int({v}, {bits}, {signed})"
                    );
                }
            }
        }
    }

    #[test]
    fn coerce_to_fpga_uint7_wraps_like_paper() {
        let size = |_: &Type| Ok(1usize);
        let v = coerce(
            Value::int(200),
            &Type::FpgaInt {
                bits: 7,
                signed: false,
            },
            &size,
        )
        .unwrap();
        assert_eq!(v.as_int(), 200 % 128);
    }

    #[test]
    fn quantize_float_reduces_precision() {
        let x = 1.0 + f64::EPSILON * 37.0;
        let q = quantize_float(x, 8, 10);
        assert_ne!(x, q);
        assert!((x - q).abs() < 1e-2);
        // Plenty of mantissa keeps the value.
        assert_eq!(quantize_float(1.5, 8, 52), 1.5);
        assert_eq!(quantize_float(0.0, 8, 10), 0.0);
    }

    #[test]
    fn quantize_float_clamps_exponent() {
        assert!(quantize_float(1e300, 8, 23).is_infinite());
        assert_eq!(quantize_float(1e-300, 8, 23), 0.0);
    }

    #[test]
    fn truthiness() {
        assert!(Value::int(1).is_truthy());
        assert!(!Value::int(0).is_truthy());
        assert!(!Value::null().is_truthy());
        assert!(Value::double(0.5).is_truthy());
        assert!(!Value::Unit.is_truthy());
    }

    #[test]
    fn scalar_out_approx_eq() {
        assert!(ScalarOut::Float(1.0).approx_eq(&ScalarOut::Float(1.0 + 1e-9)));
        assert!(!ScalarOut::Float(1.0).approx_eq(&ScalarOut::Float(1.1)));
        assert!(ScalarOut::Int(5).approx_eq(&ScalarOut::Int(5)));
        assert!(ScalarOut::Float(f64::NAN).approx_eq(&ScalarOut::Float(f64::NAN)));
    }

    #[test]
    fn outcome_behaviour_eq_considers_arrays() {
        let a = Outcome {
            ret: Some(ScalarOut::Int(1)),
            arrays: vec![vec![ScalarOut::Int(1), ScalarOut::Int(2)]],
            ..Default::default()
        };
        let mut b = a.clone();
        assert!(a.behaviour_eq(&b));
        b.arrays[0][1] = ScalarOut::Int(3);
        assert!(!a.behaviour_eq(&b));
    }

    #[test]
    fn trapping_outcomes_only_match_trapping() {
        let ok = Outcome::default();
        let trapped = Outcome {
            trapped: true,
            trap_reason: Some("oob".into()),
            ..Default::default()
        };
        assert!(!ok.behaviour_eq(&trapped));
        assert!(trapped.behaviour_eq(&trapped));
    }

    #[test]
    fn coerce_pointer_sets_stride() {
        let size = |t: &Type| {
            Ok(match t {
                Type::Struct(_) => 3usize,
                _ => 1,
            })
        };
        let p = coerce(
            Value::Ptr {
                addr: 10,
                stride: 1,
            },
            &Type::ptr(Type::Struct("Node".into())),
            &size,
        )
        .unwrap();
        assert_eq!(
            p,
            Value::Ptr {
                addr: 10,
                stride: 3
            }
        );
    }

    #[test]
    fn coerce_pointer_surfaces_unsizable_pointee() {
        let size = |t: &Type| match t {
            Type::Struct(name) => Err(crate::error::ExecError::unknown_size(format!(
                "struct `{name}`"
            ))),
            _ => Ok(1usize),
        };
        let err = coerce(
            Value::int(16),
            &Type::ptr(Type::Struct("ghost".into())),
            &size,
        )
        .unwrap_err();
        assert_eq!(err.to_string(), "cannot determine size of struct `ghost`");
    }

    #[test]
    fn coerce_int_width_chain() {
        let size = |_: &Type| Ok(1usize);
        let wide = Value::Int {
            v: 70000,
            bits: 32,
            signed: true,
        };
        let short = coerce(
            wide,
            &Type::Int {
                width: IntWidth::W16,
                signed: true,
            },
            &size,
        )
        .unwrap();
        assert_eq!(short.as_int(), wrap_int(70000, 16, true));
    }
}
