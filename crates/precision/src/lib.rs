//! Software implementations of the reduced-precision numeric types used by
//! NVIDIA tensor cores: IEEE 754 binary16 ([`F16`]) and TensorFloat-32
//! ([`Tf32`]).
//!
//! The FlashSparse paper evaluates its kernels in FP16 and TF32. On real
//! hardware these conversions happen inside the tensor core datapath; here we
//! model them exactly so the simulated kernels produce the same rounding
//! behaviour:
//!
//! * **FP16 MMA** (`m16n8k8` / `m16n8k16`): operands are binary16; products
//!   and accumulation are performed in f32.
//! * **TF32 MMA** (`m16n8k4` / `m16n8k8`): operands are f32 values whose
//!   mantissa has been rounded to 10 bits (TF32 keeps the f32 exponent range);
//!   products and accumulation are f32.
//!
//! The [`Scalar`] trait abstracts over storage precision so kernels can be
//! written once and instantiated for FP16, TF32, or plain f32 (the precision
//! used by the CUDA-core baselines).

pub mod fp16;
pub mod scalar;
pub mod tf32;

pub use fp16::{f32_through_f16, F16};
pub use scalar::Scalar;
pub use tf32::Tf32;

/// Round an `f32` to TF32 precision (10-bit mantissa, round-to-nearest-even)
/// and return it as an `f32`. Convenience free function mirroring CUDA's
/// `__float_to_tf32`.
#[inline]
pub fn f32_to_tf32(x: f32) -> f32 {
    Tf32::from_f32(x).to_f32()
}
