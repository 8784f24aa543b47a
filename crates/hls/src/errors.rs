//! HLS diagnostics: the six compatibility-error categories of the paper's
//! forum study (§5.1, Table 1, Figure 3) and Vivado-style messages.

use minic::ast::NodeId;
use std::fmt;

/// The six HLS incompatibility categories from the paper's study of 1,000
/// Xilinx forum posts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ErrorCategory {
    /// `malloc`/`free`, unknown-size arrays, recursion.
    DynamicDataStructures,
    /// `long double`, raw pointers, missing operator support.
    UnsupportedDataTypes,
    /// `#pragma HLS dataflow` constraint violations.
    DataflowOptimization,
    /// Unroll/pipeline/partition interactions.
    LoopParallelization,
    /// Unsynthesizable structs and unions.
    StructAndUnion,
    /// Missing/incorrect top-function configuration.
    TopFunction,
}

impl ErrorCategory {
    /// All categories in the order of the paper's pie chart (Figure 3).
    pub const ALL: [ErrorCategory; 6] = [
        ErrorCategory::UnsupportedDataTypes,
        ErrorCategory::TopFunction,
        ErrorCategory::DataflowOptimization,
        ErrorCategory::LoopParallelization,
        ErrorCategory::StructAndUnion,
        ErrorCategory::DynamicDataStructures,
    ];

    /// The Figure 3 proportion of this category among forum posts.
    pub fn forum_share(self) -> f64 {
        match self {
            ErrorCategory::UnsupportedDataTypes => 0.257,
            ErrorCategory::TopFunction => 0.198,
            ErrorCategory::DataflowOptimization => 0.161,
            ErrorCategory::LoopParallelization => 0.161,
            ErrorCategory::StructAndUnion => 0.141,
            ErrorCategory::DynamicDataStructures => 0.082,
        }
    }

    /// Human-readable name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCategory::DynamicDataStructures => "Dynamic Data Structures",
            ErrorCategory::UnsupportedDataTypes => "Unsupported Data Types",
            ErrorCategory::DataflowOptimization => "Dataflow Optimization",
            ErrorCategory::LoopParallelization => "Loop Parallelization",
            ErrorCategory::StructAndUnion => "Struct and Union",
            ErrorCategory::TopFunction => "Top Function",
        }
    }
}

impl fmt::Display for ErrorCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One diagnostic emitted by the (simulated) HLS compiler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HlsDiagnostic {
    /// Vivado-style tool code, e.g. `XFORM 202-876`.
    pub code: String,
    /// Full message text (what the paper's keyword classifier sees).
    pub message: String,
    /// Ground-truth category (the classifier is evaluated against this).
    pub category: ErrorCategory,
    /// AST node the error is anchored to, when known.
    pub location: Option<NodeId>,
    /// The offending symbol (variable/function/struct name), when known.
    pub symbol: Option<String>,
    /// Enclosing function, when known.
    pub function: Option<String>,
}

impl HlsDiagnostic {
    /// Creates a diagnostic.
    pub fn new(
        code: impl Into<String>,
        message: impl Into<String>,
        category: ErrorCategory,
    ) -> HlsDiagnostic {
        HlsDiagnostic {
            code: code.into(),
            message: message.into(),
            category,
            location: None,
            symbol: None,
            function: None,
        }
    }

    /// Attaches an AST location.
    pub fn at(mut self, node: NodeId) -> Self {
        self.location = Some(node);
        self
    }

    /// Attaches the offending symbol.
    pub fn on(mut self, symbol: impl Into<String>) -> Self {
        self.symbol = Some(symbol.into());
        self
    }

    /// Attaches the enclosing function.
    pub fn in_function(mut self, f: impl Into<String>) -> Self {
        self.function = Some(f.into());
        self
    }
}

impl fmt::Display for HlsDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ERROR: [{}] {}", self.code, self.message)
    }
}

impl std::error::Error for HlsDiagnostic {}

/// A failure of the (simulated) toolchain *infrastructure* itself, as
/// opposed to an [`HlsDiagnostic`] about the program under compilation.
///
/// Real HLS installations fail intermittently — license-server hiccups,
/// co-simulation crashes, scratch-disk exhaustion — and a production
/// pipeline has to distinguish faults worth retrying from faults that will
/// recur no matter how often the same invocation is replayed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ToolchainError {
    /// A flaky failure; retrying the same invocation may succeed.
    Transient {
        /// Which toolchain stage failed (`hls_check`, `hls_sim`, `exec`).
        site: &'static str,
        /// Zero-based attempt number at which the fault struck.
        attempt: u32,
        /// Human-readable failure description.
        message: String,
    },
    /// A deterministic failure; retrying the same invocation cannot help.
    Permanent {
        /// Which toolchain stage failed.
        site: &'static str,
        /// Human-readable failure description.
        message: String,
        /// Transient attempts a retry loop absorbed before this fault
        /// struck.
        absorbed: u32,
    },
    /// A transient failure that persisted through every retry the policy
    /// allowed. Behaves like a permanent fault (same `Display` form), but
    /// remembers how many transient attempts were absorbed so resilience
    /// accounting can replay them.
    Exhausted {
        /// Which toolchain stage failed.
        site: &'static str,
        /// Transient attempts absorbed before giving up.
        attempts: u32,
        /// Full failure description (includes the attempt count).
        message: String,
    },
}

impl ToolchainError {
    /// Creates a transient (retryable) toolchain error.
    pub fn transient(site: &'static str, attempt: u32, message: impl Into<String>) -> Self {
        ToolchainError::Transient {
            site,
            attempt,
            message: message.into(),
        }
    }

    /// Creates a permanent (non-retryable) toolchain error.
    pub fn permanent(site: &'static str, message: impl Into<String>) -> Self {
        ToolchainError::Permanent {
            site,
            message: message.into(),
            absorbed: 0,
        }
    }

    /// Creates an exhausted-retries toolchain error: a transient fault that
    /// persisted through `attempts` attempts. Displays exactly like the
    /// permanent fault a retry loop would synthesize for it.
    pub fn exhausted(site: &'static str, attempts: u32, inner: impl fmt::Display) -> Self {
        ToolchainError::Exhausted {
            site,
            attempts,
            message: format!("transient fault persisted through {attempts} attempts: {inner}"),
        }
    }

    /// Whether a retry of the same invocation may succeed.
    pub fn is_transient(&self) -> bool {
        matches!(self, ToolchainError::Transient { .. })
    }

    /// Whether this is a transient fault that exhausted its retry policy.
    pub fn is_exhausted(&self) -> bool {
        matches!(self, ToolchainError::Exhausted { .. })
    }

    /// Transient attempts absorbed before this error was produced: every
    /// attempt of an [`ToolchainError::Exhausted`] fault, and those a retry
    /// loop absorbed before a permanent one (see
    /// [`ToolchainError::after_transients`]).
    pub fn absorbed_transients(&self) -> u32 {
        match self {
            ToolchainError::Exhausted { attempts, .. } => *attempts,
            ToolchainError::Permanent { absorbed, .. } => *absorbed,
            ToolchainError::Transient { .. } => 0,
        }
    }

    /// This error, reached after a retry loop absorbed `transients`
    /// transient attempts: the count travels on the error, so the caller
    /// can replay those attempts into its resilience accounting. A
    /// transient error keeps no count; the loop that meets one retries it.
    pub fn after_transients(self, transients: u32) -> Self {
        match self {
            ToolchainError::Permanent {
                site,
                message,
                absorbed,
            } => ToolchainError::Permanent {
                site,
                message,
                absorbed: absorbed + transients,
            },
            ToolchainError::Exhausted {
                site,
                attempts,
                message,
            } => ToolchainError::Exhausted {
                site,
                attempts: attempts + transients,
                message,
            },
            transient @ ToolchainError::Transient { .. } => transient,
        }
    }

    /// The toolchain stage that failed.
    pub fn site(&self) -> &'static str {
        match self {
            ToolchainError::Transient { site, .. }
            | ToolchainError::Permanent { site, .. }
            | ToolchainError::Exhausted { site, .. } => site,
        }
    }

    /// The failure description.
    pub fn message(&self) -> &str {
        match self {
            ToolchainError::Transient { message, .. }
            | ToolchainError::Permanent { message, .. }
            | ToolchainError::Exhausted { message, .. } => message,
        }
    }
}

impl fmt::Display for ToolchainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ToolchainError::Transient {
                site,
                attempt,
                message,
            } => write!(
                f,
                "transient toolchain fault at {site} (attempt {attempt}): {message}"
            ),
            ToolchainError::Permanent { site, message, .. }
            | ToolchainError::Exhausted { site, message, .. } => {
                write!(f, "permanent toolchain fault at {site}: {message}")
            }
        }
    }
}

impl std::error::Error for ToolchainError {}

/// Canonical diagnostics (one representative per category), mirroring the
/// paper's Table 1 examples. Used by Table 1 regeneration and tests.
pub fn table1_examples() -> Vec<(ErrorCategory, &'static str, &'static str)> {
    vec![
        (
            ErrorCategory::DynamicDataStructures,
            "SYNCHK 200-31",
            "dynamic memory allocation/deallocation is not supported",
        ),
        (
            ErrorCategory::UnsupportedDataTypes,
            "SYNCHK 200-11",
            "call of overloaded 'pow()' is ambiguous: type 'long double' is not synthesizable",
        ),
        (
            ErrorCategory::DataflowOptimization,
            "XFORM 202-711",
            "argument 'data' failed dataflow checking",
        ),
        (
            ErrorCategory::LoopParallelization,
            "HLS 200-70",
            "pre-synthesis failed: unroll and dataflow pragmas interact",
        ),
        (
            ErrorCategory::StructAndUnion,
            "SYNCHK 200-42",
            "argument 'this' has an unsynthesizable struct type",
        ),
        (
            ErrorCategory::TopFunction,
            "HLS 200-101",
            "cannot find the top function in the design",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forum_shares_sum_to_one() {
        let total: f64 = ErrorCategory::ALL.iter().map(|c| c.forum_share()).sum();
        assert!((total - 1.0).abs() < 1e-9, "total = {total}");
    }

    #[test]
    fn display_formats_like_vivado() {
        let d = HlsDiagnostic::new(
            "XFORM 202-876",
            "Synthesizability check failed: recursive functions are not supported.",
            ErrorCategory::DynamicDataStructures,
        );
        assert_eq!(
            d.to_string(),
            "ERROR: [XFORM 202-876] Synthesizability check failed: recursive functions are not supported."
        );
    }

    #[test]
    fn builder_attaches_context() {
        let d = HlsDiagnostic::new("X", "m", ErrorCategory::TopFunction)
            .on("curr")
            .in_function("traverse")
            .at(NodeId(3));
        assert_eq!(d.symbol.as_deref(), Some("curr"));
        assert_eq!(d.function.as_deref(), Some("traverse"));
        assert_eq!(d.location, Some(NodeId(3)));
    }

    #[test]
    fn toolchain_error_classification_round_trips() {
        let t = ToolchainError::transient("hls_check", 1, "license server timed out");
        assert!(t.is_transient());
        assert_eq!(t.site(), "hls_check");
        assert_eq!(t.message(), "license server timed out");
        assert_eq!(
            t.to_string(),
            "transient toolchain fault at hls_check (attempt 1): license server timed out"
        );
        let p = ToolchainError::permanent("hls_sim", "scratch disk full");
        assert!(!p.is_transient());
        assert_eq!(p.site(), "hls_sim");
        assert_eq!(
            p.to_string(),
            "permanent toolchain fault at hls_sim: scratch disk full"
        );
        assert_ne!(t, p);
    }

    #[test]
    fn exhausted_displays_like_a_synthesized_permanent_fault() {
        let e = ToolchainError::exhausted("hls_check", 4, "license server timed out");
        assert!(!e.is_transient());
        assert!(e.is_exhausted());
        assert_eq!(e.absorbed_transients(), 4);
        assert_eq!(e.site(), "hls_check");
        // Byte-identical to the permanent fault a retry loop used to
        // synthesize on exhaustion — pinned because chaos runs compare
        // `SearchStop::PermanentFault(e.to_string())` across configurations.
        assert_eq!(
            e.to_string(),
            ToolchainError::permanent(
                "hls_check",
                "transient fault persisted through 4 attempts: license server timed out"
            )
            .to_string()
        );
        assert_eq!(
            ToolchainError::permanent("exec", "x").absorbed_transients(),
            0
        );
    }

    #[test]
    fn transients_absorbed_before_a_failure_travel_on_it() {
        let p = ToolchainError::permanent("hls_sim", "x").after_transients(2);
        assert_eq!(p.absorbed_transients(), 2);
        assert!(!p.is_transient() && !p.is_exhausted());
        assert_eq!(
            p.to_string(),
            ToolchainError::permanent("hls_sim", "x").to_string()
        );
        let e = ToolchainError::exhausted("hls_sim", 4, "x").after_transients(1);
        assert_eq!(e.absorbed_transients(), 5);
        let t = ToolchainError::transient("hls_sim", 0, "x").after_transients(3);
        assert_eq!(t.absorbed_transients(), 0);
    }

    #[test]
    fn errors_implement_std_error() {
        // Both error types participate in the std error ecosystem so callers
        // can box/propagate them uniformly; Display is the source of truth.
        let d: Box<dyn std::error::Error> = Box::new(HlsDiagnostic::new(
            "HLS 200-101",
            "Cannot find the top function in the design",
            ErrorCategory::TopFunction,
        ));
        assert!(d.to_string().starts_with("ERROR: [HLS 200-101]"));
        let e: Box<dyn std::error::Error> =
            Box::new(ToolchainError::transient("exec", 0, "fuel spike"));
        assert!(e.to_string().contains("transient"));
        let e: Box<dyn std::error::Error> =
            Box::new(ToolchainError::permanent("exec", "broken install"));
        assert!(e.to_string().contains("permanent"));
    }

    #[test]
    fn table1_covers_all_categories() {
        let ex = table1_examples();
        assert_eq!(ex.len(), 6);
        for c in ErrorCategory::ALL {
            assert!(ex.iter().any(|(cat, _, _)| *cat == c));
        }
    }
}
