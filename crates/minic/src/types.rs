//! The minic type representation, including HLS-specific types.
//!
//! HLS dialects extend C with arbitrary-bitwidth integers and floats; the
//! paper's initial-version generation step rewrites profiled C types into
//! these (e.g. `int` → `fpga_uint<7>` when the observed maximum is 83).

use std::fmt;

/// Machine integer widths of the plain C types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IntWidth {
    /// `char` (8 bits).
    W8,
    /// `short` (16 bits).
    W16,
    /// `int` (32 bits).
    W32,
    /// `long` / `long long` (64 bits).
    W64,
}

impl IntWidth {
    /// Number of bits.
    pub fn bits(self) -> u16 {
        match self {
            IntWidth::W8 => 8,
            IntWidth::W16 => 16,
            IntWidth::W32 => 32,
            IntWidth::W64 => 64,
        }
    }
}

/// Array extent: a compile-time constant, a named macro constant, or unknown
/// (the HLS-incompatible case behind `SYNCHK-31`/`SYNCHK-61` diagnostics).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ArraySize {
    /// `T a[N]` with a literal or resolved `N`.
    Const(u64),
    /// `T a[NAME]` where `NAME` is a `#define` constant; resolved at parse
    /// time when the definition is visible, kept symbolic otherwise.
    Named(String),
    /// `T a[n]` with a runtime variable `n` — a VLA, unknown at compile
    /// time (the HLS-incompatible case), but executable on the CPU side.
    Runtime(String),
    /// `T a[]` — no extent at all.
    Unknown,
}

impl ArraySize {
    /// The constant extent, if known.
    pub fn as_const(&self) -> Option<u64> {
        match self {
            ArraySize::Const(n) => Some(*n),
            _ => None,
        }
    }
}

/// A minic type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// `void`.
    Void,
    /// `bool`.
    Bool,
    /// Plain C integer (`char`, `short`, `int`, `long`, …).
    Int {
        /// Storage width.
        width: IntWidth,
        /// Signedness.
        signed: bool,
    },
    /// `float` (32-bit).
    Float,
    /// `double` (64-bit).
    Double,
    /// `long double` — *not* synthesizable; the canonical "unsupported data
    /// type" from the paper's Table 1.
    LongDouble,
    /// `fpga_int<N>` / `fpga_uint<N>`: HLS arbitrary-precision integer.
    FpgaInt {
        /// Bit width (1..=1024).
        bits: u16,
        /// Signedness.
        signed: bool,
    },
    /// `fpga_float<E,M>`: HLS float with custom exponent/mantissa widths.
    FpgaFloat {
        /// Exponent bits.
        exp: u16,
        /// Mantissa bits.
        mant: u16,
    },
    /// `T*`.
    Pointer(Box<Type>),
    /// `T[N]`.
    Array(Box<Type>, ArraySize),
    /// `struct S` or bare `S` after definition.
    Struct(String),
    /// `union U`.
    Union(String),
    /// `hls::stream<T>`.
    Stream(Box<Type>),
    /// A typedef name not yet resolved.
    Named(String),
}

impl Type {
    /// Convenience constructor for the plain C `int`.
    pub fn int() -> Type {
        Type::Int {
            width: IntWidth::W32,
            signed: true,
        }
    }

    /// Convenience constructor for `unsigned int`.
    pub fn uint() -> Type {
        Type::Int {
            width: IntWidth::W32,
            signed: false,
        }
    }

    /// Convenience constructor for `T*`.
    pub fn ptr(inner: Type) -> Type {
        Type::Pointer(Box::new(inner))
    }

    /// Convenience constructor for `T[n]`.
    pub fn array(inner: Type, n: u64) -> Type {
        Type::Array(Box::new(inner), ArraySize::Const(n))
    }

    /// Whether this is any integer type (C or FPGA).
    pub fn is_integer(&self) -> bool {
        matches!(self, Type::Int { .. } | Type::FpgaInt { .. } | Type::Bool)
    }

    /// Whether this is any floating type (C or FPGA).
    pub fn is_float(&self) -> bool {
        matches!(
            self,
            Type::Float | Type::Double | Type::LongDouble | Type::FpgaFloat { .. }
        )
    }

    /// Whether this is a pointer.
    pub fn is_pointer(&self) -> bool {
        matches!(self, Type::Pointer(_))
    }

    /// Whether this is an array.
    pub fn is_array(&self) -> bool {
        matches!(self, Type::Array(..))
    }

    /// The pointee/element type for pointers and arrays.
    pub fn element(&self) -> Option<&Type> {
        match self {
            Type::Pointer(t) | Type::Array(t, _) | Type::Stream(t) => Some(t),
            _ => None,
        }
    }

    /// Bit width of an integer type, if it has one.
    pub fn int_bits(&self) -> Option<u16> {
        match self {
            Type::Bool => Some(1),
            Type::Int { width, .. } => Some(width.bits()),
            Type::FpgaInt { bits, .. } => Some(*bits),
            _ => None,
        }
    }

    /// Signedness of an integer type (`true` for signed).
    pub fn int_signed(&self) -> Option<bool> {
        match self {
            Type::Bool => Some(false),
            Type::Int { signed, .. } | Type::FpgaInt { signed, .. } => Some(*signed),
            _ => None,
        }
    }

    /// Whether the paper's HLS dialect accepts this type as-is.
    ///
    /// `long double` is the canonical unsupported scalar; unknown-size arrays
    /// are unsupported storage; raw pointers are only permitted at hardware
    /// interfaces (checked contextually by `hls-sim`, not here).
    pub fn is_hls_scalar_supported(&self) -> bool {
        !matches!(self, Type::LongDouble)
    }

    /// Recursively replaces `Named` types using the resolver.
    pub fn resolve_named(&self, resolve: &dyn Fn(&str) -> Option<Type>) -> Type {
        match self {
            Type::Named(n) => resolve(n).unwrap_or_else(|| self.clone()),
            Type::Pointer(t) => Type::Pointer(Box::new(t.resolve_named(resolve))),
            Type::Array(t, n) => Type::Array(Box::new(t.resolve_named(resolve)), n.clone()),
            Type::Stream(t) => Type::Stream(Box::new(t.resolve_named(resolve))),
            other => other.clone(),
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Void => write!(f, "void"),
            Type::Bool => write!(f, "bool"),
            Type::Int { width, signed } => {
                let base = match width {
                    IntWidth::W8 => "char",
                    IntWidth::W16 => "short",
                    IntWidth::W32 => "int",
                    IntWidth::W64 => "long long",
                };
                if *signed {
                    write!(f, "{base}")
                } else {
                    write!(f, "unsigned {base}")
                }
            }
            Type::Float => write!(f, "float"),
            Type::Double => write!(f, "double"),
            Type::LongDouble => write!(f, "long double"),
            Type::FpgaInt { bits, signed } => {
                if *signed {
                    write!(f, "fpga_int<{bits}>")
                } else {
                    write!(f, "fpga_uint<{bits}>")
                }
            }
            Type::FpgaFloat { exp, mant } => write!(f, "fpga_float<{exp},{mant}>"),
            Type::Pointer(t) => write!(f, "{t}*"),
            Type::Array(t, ArraySize::Const(n)) => write!(f, "{t}[{n}]"),
            Type::Array(t, ArraySize::Named(n)) => write!(f, "{t}[{n}]"),
            Type::Array(t, ArraySize::Runtime(n)) => write!(f, "{t}[{n}]"),
            Type::Array(t, ArraySize::Unknown) => write!(f, "{t}[]"),
            Type::Struct(n) => write!(f, "{n}"),
            Type::Union(n) => write!(f, "{n}"),
            Type::Stream(t) => write!(f, "hls::stream<{t}>"),
            Type::Named(n) => write!(f, "{n}"),
        }
    }
}

/// Returns the minimum number of bits required to represent every value in
/// `lo..=hi` with the given signedness, as used by bitwidth finitization.
///
/// # Examples
///
/// ```
/// // max value 83 needs 7 bits unsigned (the paper's `ret` example)
/// assert_eq!(minic::types::bits_for_range(0, 83, false), 7);
/// assert_eq!(minic::types::bits_for_range(-3, 83, true), 8);
/// ```
pub fn bits_for_range(lo: i128, hi: i128, signed: bool) -> u16 {
    if signed {
        // Smallest n with -(2^(n-1)) <= lo and hi <= 2^(n-1) - 1.
        for n in 1..=126u16 {
            let min = -(1i128 << (n - 1));
            let max = (1i128 << (n - 1)) - 1;
            if lo >= min && hi <= max {
                return n;
            }
        }
        127
    } else {
        let v = hi.max(0) as u128;
        (128 - v.leading_zeros()).max(1) as u16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_trips_common_types() {
        assert_eq!(Type::int().to_string(), "int");
        assert_eq!(Type::uint().to_string(), "unsigned int");
        assert_eq!(Type::LongDouble.to_string(), "long double");
        assert_eq!(
            Type::FpgaInt {
                bits: 7,
                signed: false
            }
            .to_string(),
            "fpga_uint<7>"
        );
        assert_eq!(
            Type::FpgaFloat { exp: 8, mant: 71 }.to_string(),
            "fpga_float<8,71>"
        );
        assert_eq!(
            Type::Stream(Box::new(Type::uint())).to_string(),
            "hls::stream<unsigned int>"
        );
        assert_eq!(Type::ptr(Type::Float).to_string(), "float*");
        assert_eq!(Type::array(Type::int(), 13).to_string(), "int[13]");
    }

    #[test]
    fn classification_predicates() {
        assert!(Type::int().is_integer());
        assert!(Type::FpgaInt {
            bits: 9,
            signed: true
        }
        .is_integer());
        assert!(Type::LongDouble.is_float());
        assert!(!Type::LongDouble.is_hls_scalar_supported());
        assert!(Type::Float.is_hls_scalar_supported());
        assert!(Type::ptr(Type::Void).is_pointer());
    }

    #[test]
    fn bits_for_range_matches_paper_example() {
        assert_eq!(bits_for_range(0, 83, false), 7);
        assert_eq!(bits_for_range(0, 127, false), 7);
        assert_eq!(bits_for_range(0, 128, false), 8);
        assert_eq!(bits_for_range(0, 0, false), 1);
        assert_eq!(bits_for_range(0, 1, false), 1);
    }

    #[test]
    fn bits_for_range_signed() {
        assert_eq!(bits_for_range(-1, 1, true), 2);
        assert_eq!(bits_for_range(-128, 127, true), 8);
        assert_eq!(bits_for_range(-129, 0, true), 9);
    }

    #[test]
    fn element_access() {
        let arr = Type::array(Type::Float, 4);
        assert_eq!(arr.element(), Some(&Type::Float));
        assert_eq!(arr.clone().element().unwrap().to_string(), "float");
        assert_eq!(Type::int().element(), None);
    }

    #[test]
    fn resolve_named_rewrites_nested() {
        let resolver = |n: &str| {
            (n == "Node_ptr").then_some(Type::FpgaInt {
                bits: 16,
                signed: false,
            })
        };
        let t = Type::ptr(Type::Named("Node_ptr".into()));
        let r = t.resolve_named(&resolver);
        assert_eq!(r.to_string(), "fpga_uint<16>*");
    }
}
