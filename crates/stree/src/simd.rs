//! The host's SIMD level, reported in every benchmark's host header.

/// The widest SIMD instruction set the host supports.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimdLevel {
    /// No vector extension detected (or not an x86-64 host).
    Scalar,
    /// 128-bit SSE2 (baseline on x86-64).
    Sse2,
    /// 256-bit AVX2.
    Avx2,
}

impl SimdLevel {
    /// Short stable name for logs and bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

/// Detects the widest SIMD level the host CPU supports.
///
/// This describes the host for benchmark headers; no code in the
/// workspace dispatches on it.
pub fn active_level() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdLevel::Avx2;
        }
        if std::arch::is_x86_feature_detected!("sse2") {
            return SimdLevel::Sse2;
        }
    }
    SimdLevel::Scalar
}
