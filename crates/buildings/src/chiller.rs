//! Chiller physics: COP curves and part-load behaviour.
//!
//! Each chiller follows the standard quadratic part-load model: efficiency
//! peaks at full load and degrades with the square of the distance from it,
//! and warmer condenser (outdoor) temperatures shave off a linear factor.
//! The *true* COP here is the hidden ground truth the learned task models
//! try to recover from noisy telemetry.

/// Floor below which no operating chiller's COP falls.
pub const MIN_COP: f64 = 0.5;

/// Physical ceiling on COP for any machine in the fleet.
pub const MAX_COP: f64 = 12.0;

/// Outdoor temperature (°C) at which `peak_cop` is rated.
pub const RATING_TEMP_C: f64 = 28.0;

/// Compressor technology of a chiller (a Table-I domain feature).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChillerModel {
    /// Centrifugal compressor — large machines, best peak efficiency.
    Centrifugal,
    /// Screw compressor — mid-size workhorse.
    Screw,
    /// Scroll compressor — small machines.
    Scroll,
}

impl ChillerModel {
    /// Encodes the model as an ordinal feature value.
    pub fn as_feature(self) -> f64 {
        match self {
            ChillerModel::Centrifugal => 0.0,
            ChillerModel::Screw => 1.0,
            ChillerModel::Scroll => 2.0,
        }
    }
}

/// One physical chiller with its hidden efficiency curve.
#[derive(Debug, Clone, PartialEq)]
pub struct Chiller {
    model: ChillerModel,
    capacity_kw: f64,
    peak_cop: f64,
    curvature: f64,
    temp_coeff: f64,
}

impl Chiller {
    /// Builds a chiller from its curve parameters.
    ///
    /// * `capacity_kw` — rated cooling capacity (> 0).
    /// * `peak_cop` — COP at full load and [`RATING_TEMP_C`].
    /// * `curvature` — quadratic part-load penalty in `[0, 1)`; COP at zero
    ///   load is `peak_cop · (1 − curvature)`.
    /// * `temp_coeff` — fractional COP loss per °C above [`RATING_TEMP_C`].
    ///
    /// # Panics
    ///
    /// Panics on non-positive capacity or out-of-range curve parameters —
    /// these are construction bugs, not runtime conditions.
    pub fn new(
        model: ChillerModel,
        capacity_kw: f64,
        peak_cop: f64,
        curvature: f64,
        temp_coeff: f64,
    ) -> Self {
        assert!(capacity_kw > 0.0, "capacity must be positive");
        assert!(peak_cop > MIN_COP && peak_cop <= MAX_COP, "peak COP out of range");
        assert!((0.0..1.0).contains(&curvature), "curvature out of [0,1)");
        assert!((0.0..0.05).contains(&temp_coeff), "temp coefficient out of range");
        Self { model, capacity_kw, peak_cop, curvature, temp_coeff }
    }

    /// Compressor technology.
    pub fn model(&self) -> ChillerModel {
        self.model
    }

    /// Rated cooling capacity, kW.
    pub fn capacity_kw(&self) -> f64 {
        self.capacity_kw
    }

    /// COP at full load and rating temperature.
    pub fn peak_cop(&self) -> f64 {
        self.peak_cop
    }

    /// Part-load ratio for a given cooling load (clamped to `[0, 1]`).
    pub fn plr(&self, load_kw: f64) -> f64 {
        (load_kw / self.capacity_kw).clamp(0.0, 1.0)
    }

    /// True COP at `load_kw` under outdoor temperature `outdoor_temp_c`:
    ///
    /// ```text
    /// cop = peak · (1 − curvature · (1 − plr)²) · (1 − temp_coeff · (T − 28))
    /// ```
    ///
    /// clamped to `[MIN_COP, MAX_COP]`.
    pub fn cop(&self, load_kw: f64, outdoor_temp_c: f64) -> f64 {
        let plr = self.plr(load_kw);
        let part_load = 1.0 - self.curvature * (1.0 - plr) * (1.0 - plr);
        let temp = 1.0 - self.temp_coeff * (outdoor_temp_c - RATING_TEMP_C);
        (self.peak_cop * part_load * temp).clamp(MIN_COP, MAX_COP)
    }

    /// True electrical power (kW) drawn while delivering `load_kw` of
    /// cooling at `outdoor_temp_c`.
    pub fn power_kw(&self, load_kw: f64, outdoor_temp_c: f64) -> f64 {
        if load_kw <= 0.0 {
            0.0
        } else {
            load_kw / self.cop(load_kw, outdoor_temp_c)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chiller() -> Chiller {
        Chiller::new(ChillerModel::Screw, 500.0, 5.4, 0.9, 0.008)
    }

    #[test]
    fn model_features_are_distinct_ordinals() {
        let all = [ChillerModel::Centrifugal, ChillerModel::Screw, ChillerModel::Scroll];
        for (i, m) in all.iter().enumerate() {
            assert_eq!(m.as_feature(), i as f64);
        }
    }

    #[test]
    fn cop_peaks_at_full_load() {
        let c = chiller();
        let full = c.cop(500.0, RATING_TEMP_C);
        assert!((full - 5.4).abs() < 1e-12);
        for load in [50.0, 150.0, 300.0, 450.0] {
            assert!(c.cop(load, RATING_TEMP_C) < full);
        }
    }

    #[test]
    fn cop_monotone_in_load_below_capacity() {
        let c = chiller();
        let mut prev = c.cop(10.0, 30.0);
        for load in (1..=50).map(|i| i as f64 * 10.0) {
            let cop = c.cop(load, 30.0);
            assert!(cop >= prev - 1e-12, "COP dipped at load {load}");
            prev = cop;
        }
    }

    #[test]
    fn heat_hurts_efficiency() {
        let c = chiller();
        assert!(c.cop(400.0, 34.0) < c.cop(400.0, RATING_TEMP_C));
        assert!(c.cop(400.0, 20.0) > c.cop(400.0, RATING_TEMP_C));
    }

    #[test]
    fn cop_stays_clamped() {
        let c = chiller();
        for load in [0.0, 1.0, 250.0, 500.0, 900.0] {
            for temp in [-10.0, 15.0, 28.0, 45.0, 80.0] {
                let cop = c.cop(load, temp);
                assert!((MIN_COP..=MAX_COP).contains(&cop), "cop {cop} at {load}/{temp}");
            }
        }
    }

    #[test]
    fn power_is_load_over_cop() {
        let c = chiller();
        let p = c.power_kw(400.0, 30.0);
        assert!((p - 400.0 / c.cop(400.0, 30.0)).abs() < 1e-12);
        assert_eq!(c.power_kw(0.0, 30.0), 0.0);
        assert_eq!(c.power_kw(-5.0, 30.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        Chiller::new(ChillerModel::Scroll, 0.0, 5.0, 0.9, 0.008);
    }
}
