//! Seeded seasonal/diurnal weather process.
//!
//! The paper's buildings sit in a subtropical campus where cooling runs
//! year-round; what matters to the chiller-sequencing decision is the
//! outdoor wet-bulb proxy (here a single dry-bulb temperature) and a
//! coarse sky condition. The process is a deterministic seasonal carrier
//! plus a diurnal offset per decision slot, with seeded per-sample noise —
//! the same `(day, slot)` under the same RNG stream always reproduces the
//! same sample.

use rand::Rng;

/// Coarse sky condition attached to every weather sample (one of the
/// Table-I domain features).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeatherCondition {
    /// Clear sky: full solar gain, hottest.
    Clear,
    /// Overcast: reduced solar gain.
    Cloudy,
    /// Rain: evaporative cooling, coolest.
    Rain,
}

impl WeatherCondition {
    /// Encodes the condition as an ordinal feature value (Table-I uses a
    /// categorical weather field; the reproduction's models consume the
    /// ordinal directly).
    pub fn as_feature(self) -> f64 {
        match self {
            WeatherCondition::Clear => 0.0,
            WeatherCondition::Cloudy => 1.0,
            WeatherCondition::Rain => 2.0,
        }
    }
}

/// One weather observation: the context of a sequencing decision slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeatherSample {
    /// Sky condition.
    pub condition: WeatherCondition,
    /// Outdoor dry-bulb temperature, °C.
    pub outdoor_temp_c: f64,
}

/// The seeded weather process: seasonal sinusoid + diurnal slot offsets +
/// per-sample noise and sky condition.
#[derive(Debug, Clone, PartialEq)]
pub struct WeatherModel {
    annual_mean_c: f64,
    seasonal_amp_c: f64,
    phase_days: f64,
    diurnal_offsets_c: [f64; 3],
    noise_amp_c: f64,
}

/// Days per year used by the seasonal carrier.
const DAYS_PER_YEAR: f64 = 365.25;

impl WeatherModel {
    /// Builds a weather process with an explicit seasonal carrier.
    ///
    /// `phase_days` shifts where in the year day 0 falls; the diurnal
    /// offsets and noise amplitude take the scenario defaults.
    pub fn new(annual_mean_c: f64, seasonal_amp_c: f64, phase_days: f64) -> Self {
        Self {
            annual_mean_c,
            seasonal_amp_c,
            phase_days,
            diurnal_offsets_c: [-2.0, 3.0, 0.5],
            noise_amp_c: 1.2,
        }
    }

    /// Draws the scenario-convention process: subtropical campus climate
    /// (annual mean ≈ 24 °C, seasonal swing ≈ ±7 °C) with a seeded phase so
    /// different scenario seeds start in different seasons.
    pub fn seeded(rng: &mut impl Rng) -> Self {
        let phase = rng.gen::<f64>() * DAYS_PER_YEAR;
        Self::new(24.0, 7.0, phase)
    }

    /// The annual mean temperature, °C.
    pub fn annual_mean_c(&self) -> f64 {
        self.annual_mean_c
    }

    /// The seasonal half-swing, °C.
    pub fn seasonal_amp_c(&self) -> f64 {
        self.seasonal_amp_c
    }

    /// The noiseless seasonal carrier at `day` (slot offsets excluded).
    pub fn seasonal_mean_c(&self, day: u32) -> f64 {
        let angle = 2.0 * std::f64::consts::PI * (f64::from(day) + self.phase_days) / DAYS_PER_YEAR;
        self.annual_mean_c + self.seasonal_amp_c * angle.sin()
    }

    /// Samples the weather of decision slot `slot` on `day`, consuming the
    /// RNG stream (two draws: condition, noise). Slots beyond the diurnal
    /// table wrap around.
    pub fn sample(&self, day: u32, slot: usize, rng: &mut impl Rng) -> WeatherSample {
        let u = rng.gen::<f64>();
        let condition = if u < 0.15 {
            WeatherCondition::Rain
        } else if u < 0.42 {
            WeatherCondition::Cloudy
        } else {
            WeatherCondition::Clear
        };
        let condition_offset = match condition {
            WeatherCondition::Clear => 1.0,
            WeatherCondition::Cloudy => -0.8,
            WeatherCondition::Rain => -2.2,
        };
        let noise = self.noise_amp_c * (2.0 * rng.gen::<f64>() - 1.0);
        let outdoor_temp_c = self.seasonal_mean_c(day)
            + self.diurnal_offsets_c[slot % self.diurnal_offsets_c.len()]
            + condition_offset
            + noise;
        WeatherSample { condition, outdoor_temp_c }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn condition_features_are_distinct_ordinals() {
        let all = [WeatherCondition::Clear, WeatherCondition::Cloudy, WeatherCondition::Rain];
        for (i, c) in all.iter().enumerate() {
            assert_eq!(c.as_feature(), i as f64);
        }
    }

    #[test]
    fn seasonal_carrier_spans_the_configured_swing() {
        let w = WeatherModel::new(24.0, 7.0, 0.0);
        let temps: Vec<f64> = (0u32..366).map(|d| w.seasonal_mean_c(d)).collect();
        let lo = temps.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = temps.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!((lo - 17.0).abs() < 0.1, "min {lo}");
        assert!((hi - 31.0).abs() < 0.1, "max {hi}");
    }

    #[test]
    fn sampling_is_deterministic_per_stream() {
        let w = WeatherModel::new(24.0, 7.0, 10.0);
        let mut a = SmallRng::seed_from_u64(9);
        let mut b = SmallRng::seed_from_u64(9);
        for day in 0..30 {
            for slot in 0..3 {
                assert_eq!(w.sample(day, slot, &mut a), w.sample(day, slot, &mut b));
            }
        }
    }

    #[test]
    fn samples_stay_in_a_physical_band() {
        let mut rng = SmallRng::seed_from_u64(1);
        let w = WeatherModel::seeded(&mut rng);
        for day in 0..400 {
            for slot in 0..3 {
                let s = w.sample(day, slot, &mut rng);
                assert!(
                    (5.0..=45.0).contains(&s.outdoor_temp_c),
                    "day {day} slot {slot}: {}",
                    s.outdoor_temp_c
                );
            }
        }
    }
}
