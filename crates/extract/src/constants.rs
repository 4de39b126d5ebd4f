//! Physical constants (SI).

use crate::error::{require_positive, ExtractError};

/// Vacuum permeability μ₀, H/m.
pub const MU0: f64 = 4.0e-7 * std::f64::consts::PI;

/// Vacuum permittivity ε₀, F/m.
pub const EPS0: f64 = 8.854_187_812_8e-12;

/// Resistivity of on-chip copper (including barrier/liner overhead),
/// Ω·m — slightly above bulk copper's 1.68e-8.
pub const COPPER_RHO: f64 = 2.0e-8;

/// Speed of light in vacuum, m/s.
pub const C0: f64 = 299_792_458.0;

/// Skin depth δ = sqrt(ρ / (π f μ₀)) of a conductor, meters.
///
/// At 1 GHz in copper this is ~2.2 µm — comparable to upper-metal wire
/// thickness, which is exactly why the paper's extraction splits wide
/// conductors into filaments.
///
/// # Errors
///
/// Returns [`ExtractError::NonPositiveParameter`] if `freq_hz` or
/// `rho_ohm_m` is not strictly positive and finite.
pub fn skin_depth(freq_hz: f64, rho_ohm_m: f64) -> Result<f64, ExtractError> {
    require_positive("frequency", freq_hz)?;
    require_positive("resistivity", rho_ohm_m)?;
    Ok(skin_depth_unchecked(freq_hz, rho_ohm_m))
}

/// [`skin_depth`] without parameter validation — for callers that have
/// already established positivity.
pub(crate) fn skin_depth_unchecked(freq_hz: f64, rho_ohm_m: f64) -> f64 {
    (rho_ohm_m / (std::f64::consts::PI * freq_hz * MU0)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copper_skin_depth_at_1ghz() {
        let d = skin_depth(1e9, COPPER_RHO).unwrap();
        assert!(d > 1.5e-6 && d < 3.0e-6, "δ = {d}");
    }

    #[test]
    fn skin_depth_scales_inverse_sqrt_frequency() {
        let d1 = skin_depth(1e9, COPPER_RHO).unwrap();
        let d2 = skin_depth(4e9, COPPER_RHO).unwrap();
        assert!((d1 / d2 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn skin_depth_rejects_bad_inputs() {
        assert!(matches!(
            skin_depth(0.0, COPPER_RHO),
            Err(ExtractError::NonPositiveParameter { what: "frequency", .. })
        ));
        assert!(matches!(
            skin_depth(1e9, -1.0),
            Err(ExtractError::NonPositiveParameter { what: "resistivity", .. })
        ));
    }

    #[test]
    fn constants_sane() {
        assert!((MU0 - 1.2566e-6).abs() < 1e-9);
        assert!((EPS0 * MU0 * C0 * C0 - 1.0).abs() < 1e-4);
    }
}
