// Fixture: LKK010 — instruction-set selection outside the ISA seam.
use lkk_kokkos::isa;

#[target_feature(enable = "avx2")]
unsafe fn filter_wide(xs: &[f64]) -> u64 {
    xs.len() as u64
}

#[target_feature(enable = "avx2,fma")]
unsafe fn filter_fused(xs: &[f64]) -> u64 {
    xs.len() as u64
}

pub fn filter(xs: &[f64]) -> u64 {
    if is_x86_feature_detected!("avx2") {
        return unsafe { filter_wide(xs) };
    }
    // Through the seam, naming no feature: fine. So is prose: target_feature.
    isa::active().call(|xs: &[f64]| xs.len() as u64, xs)
}
