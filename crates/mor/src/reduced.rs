//! Evaluation of a PRIMA-reduced model: transient and AC.
//!
//! "Reduced order models are very efficient in terms of simulation time
//! and can match the original large model quite accurately. They are
//! well suited to handle large topologies or longer simulation times and
//! also provide a control over the accuracy via the order of the
//! reduced system." — everything here is dense q×q with q in the tens.

use ind101_circuit::{SourceWave, Trace};
use ind101_numeric::{Complex64, Matrix, NumericError};

/// A reduced descriptor system `Ĉ·ż + Ĝ·z = B̂·u`, `y = L̂ᵀ·z`.
#[derive(Clone, Debug)]
pub struct ReducedModel {
    g: Matrix<f64>,
    c: Matrix<f64>,
    b: Matrix<f64>,
    l: Matrix<f64>,
}

impl ReducedModel {
    /// Wraps reduced matrices (used by the PRIMA driver).
    pub fn new(g: Matrix<f64>, c: Matrix<f64>, b: Matrix<f64>, l: Matrix<f64>) -> Self {
        assert_eq!(g.nrows(), g.ncols());
        assert_eq!(c.nrows(), g.nrows());
        assert_eq!(b.nrows(), g.nrows());
        assert_eq!(l.nrows(), g.nrows());
        Self { g, c, b, l }
    }

    /// Reduced order `q`.
    pub fn order(&self) -> usize {
        self.g.nrows()
    }

    /// Number of inputs.
    pub fn num_inputs(&self) -> usize {
        self.b.ncols()
    }

    /// Number of outputs.
    pub fn num_outputs(&self) -> usize {
        self.l.ncols()
    }

    /// Reduced conductance matrix.
    pub fn g(&self) -> &Matrix<f64> {
        &self.g
    }

    /// Reduced storage matrix.
    pub fn c(&self) -> &Matrix<f64> {
        &self.c
    }

    /// DC transfer matrix `L̂ᵀ·Ĝ⁻¹·B̂` (outputs × inputs).
    ///
    /// # Errors
    ///
    /// Fails if `Ĝ` is singular.
    pub fn dc_gain(&self) -> Result<Matrix<f64>, NumericError> {
        let x = self.g.lu()?.solve_matrix(&self.b)?;
        self.l.transpose().matmul(&x)
    }

    /// Frequency response: for each frequency, the (outputs × inputs)
    /// complex transfer matrix `L̂ᵀ(Ĝ + jωĈ)⁻¹B̂`.
    ///
    /// # Errors
    ///
    /// Fails if the complex system is singular at some frequency.
    pub fn ac(&self, freqs_hz: &[f64]) -> Result<Vec<Matrix<Complex64>>, NumericError> {
        let q = self.order();
        let mut out = Vec::with_capacity(freqs_hz.len());
        for &f in freqs_hz {
            let jw = Complex64::jomega(2.0 * std::f64::consts::PI * f);
            let a = Matrix::from_fn(q, q, |i, j| {
                Complex64::from_real(self.g[(i, j)]) + jw * self.c[(i, j)]
            });
            let fac = a.lu()?;
            let bc = Matrix::from_fn(q, self.b.ncols(), |i, j| Complex64::from_real(self.b[(i, j)]));
            let x = fac.solve_matrix(&bc)?;
            let lc = Matrix::from_fn(self.l.ncols(), q, |i, j| Complex64::from_real(self.l[(j, i)]));
            out.push(lc.matmul(&x)?);
        }
        Ok(out)
    }

    /// Trapezoidal transient of the reduced system.
    ///
    /// `inputs` supplies one waveform per input column. Returns one
    /// trace per output. The initial state solves the DC system at
    /// `t = 0`.
    ///
    /// # Errors
    ///
    /// Fails on singular reduced systems or mismatched input counts.
    pub fn transient(
        &self,
        inputs: &[SourceWave],
        dt: f64,
        t_stop: f64,
    ) -> Result<Vec<Trace>, NumericError> {
        if inputs.len() != self.num_inputs() {
            return Err(NumericError::DimensionMismatch {
                expected: self.num_inputs(),
                found: inputs.len(),
            });
        }
        assert!(dt > 0.0 && t_stop > dt, "invalid time axis");
        let q = self.order();
        let k = 2.0 / dt;
        // (kĈ + Ĝ) z⁺ = (kĈ − Ĝ) z + B̂(u⁺ + u)
        let lhs = self.g.add_scaled(k, &self.c)?;
        let fac = lhs.lu()?;
        let rhs_m = self.c.add_scaled(-1.0 / k, &self.g)?; // (Ĉ − Ĝ/k)
        // We'll scale by k when applying: k·Ĉ − Ĝ = k·(Ĉ − Ĝ/k).

        let u_at = |t: f64| -> Vec<f64> { inputs.iter().map(|w| w.value_at(t)).collect() };

        // Initial state: Ĝ z₀ = B̂ u(0) (fall back to zero if singular).
        let u0 = u_at(0.0);
        let bu0 = self.b.matvec(&u0)?;
        let mut z = match self.g.lu() {
            Ok(f) => f.solve(&bu0)?,
            Err(_) => vec![0.0; q],
        };

        let n_steps = (t_stop / dt).ceil() as usize;
        let mut times = Vec::with_capacity(n_steps + 1);
        let mut ys: Vec<Vec<f64>> = vec![Vec::with_capacity(n_steps + 1); self.num_outputs()];
        let record = |t: f64, z: &[f64], times: &mut Vec<f64>, ys: &mut Vec<Vec<f64>>| {
            times.push(t);
            for (j, y) in ys.iter_mut().enumerate() {
                let mut acc = 0.0;
                for i in 0..q {
                    acc += self.l[(i, j)] * z[i];
                }
                y.push(acc);
            }
        };
        record(0.0, &z, &mut times, &mut ys);

        let mut u_prev = u0;
        for step in 1..=n_steps {
            let t = step as f64 * dt;
            let u = u_at(t);
            let mut rhs = rhs_m.matvec(&z)?;
            for v in &mut rhs {
                *v *= k;
            }
            let usum: Vec<f64> = u.iter().zip(&u_prev).map(|(a, b)| a + b).collect();
            let bu = self.b.matvec(&usum)?;
            for (r, v) in rhs.iter_mut().zip(&bu) {
                *r += v;
            }
            z = fac.solve(&rhs)?;
            u_prev = u;
            record(t, &z, &mut times, &mut ys);
        }
        Ok(ys
            .into_iter()
            .map(|v| Trace::new(times.clone(), v))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use crate::algorithm::{prima, PrimaOptions};
    use ind101_circuit::{Circuit, SourceWave, TranOptions};

    /// An RLC line whose reduced model must match the full simulation.
    fn rlc_line(stages: usize) -> (Circuit, ind101_circuit::NodeId) {
        let mut c = Circuit::new();
        let inp = c.node("in");
        c.vsrc(inp, Circuit::GND, SourceWave::step(0.0, 1.0, 20e-12, 20e-12));
        let mut prev = inp;
        for k in 0..stages {
            let mid = c.node(format!("m{k}"));
            let n = c.node(format!("n{k}"));
            c.resistor(prev, mid, 2.0);
            c.inductor(mid, n, 50e-12);
            c.capacitor(n, Circuit::GND, 10e-15);
            prev = n;
        }
        (c, prev)
    }

    #[test]
    fn reduced_transient_matches_full_simulation() {
        let (c, out) = rlc_line(12);
        let sys = c.mna_system().unwrap();
        let rm = prima(
            &sys,
            &[sys.node_index(out).unwrap()],
            &PrimaOptions {
                order: 30,
                ..PrimaOptions::default()
            },
        )
        .unwrap();
        let dt = 0.5e-12;
        let t_stop = 400e-12;
        let full = c.transient(&TranOptions::new(dt, t_stop)).unwrap();
        let v_full = full.voltage(out);
        let reduced = rm
            .transient(&[SourceWave::step(0.0, 1.0, 20e-12, 20e-12)], dt, t_stop)
            .unwrap();
        let v_red = &reduced[0];
        // Compare at several sample times.
        for &t in &[50e-12, 100e-12, 200e-12, 390e-12] {
            let d = (v_full.sample(t) - v_red.sample(t)).abs();
            assert!(d < 0.03, "t={t:e}: full {} vs reduced {}", v_full.sample(t), v_red.sample(t));
        }
    }

    #[test]
    fn reduced_ac_matches_structure() {
        let (c, out) = rlc_line(8);
        let sys = c.mna_system().unwrap();
        let rm = prima(&sys, &[sys.node_index(out).unwrap()], &PrimaOptions::default()).unwrap();
        let h = rm.ac(&[1e8, 1e9, 5e9]).unwrap();
        assert_eq!(h.len(), 3);
        // Low-frequency transfer ≈ 1 (line passes DC).
        assert!((h[0][(0, 0)].abs() - 1.0).abs() < 0.05);
    }

    #[test]
    fn input_count_mismatch_is_error() {
        let (c, out) = rlc_line(4);
        let sys = c.mna_system().unwrap();
        let rm = prima(&sys, &[sys.node_index(out).unwrap()], &PrimaOptions::default()).unwrap();
        assert!(rm.transient(&[], 1e-12, 1e-9).is_err());
    }

    #[test]
    fn accessors() {
        let (c, out) = rlc_line(4);
        let sys = c.mna_system().unwrap();
        let rm = prima(&sys, &[sys.node_index(out).unwrap()], &PrimaOptions::default()).unwrap();
        assert_eq!(rm.num_inputs(), 1);
        assert_eq!(rm.num_outputs(), 1);
        assert!(rm.order() > 0);
    }
}
