//! Scalar root finding and one-dimensional optimization.
//!
//! The paper's evaluation asks two scalar questions that these routines
//! answer:
//!
//! * *"What rejuvenation interval maximizes expected reliability?"*
//!   (Figure 3) — [`golden_section_max`];
//! * *"At what parameter value do the four- and six-version curves cross?"*
//!   (Figures 4a and 4d) — [`brent`] on the difference of the
//!   two reliability functions.

use crate::{NumericsError, Result};

/// Result of a one-dimensional maximization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Maximum {
    /// Argument at which the maximum was located.
    pub x: f64,
    /// Function value at [`Maximum::x`].
    pub value: f64,
}

/// Finds a root of `f` in `[lo, hi]` with Brent's method (inverse quadratic
/// interpolation guarded by bisection). Converges much faster than plain
/// bisection on smooth functions.
///
/// # Errors
///
/// * [`NumericsError::InvalidValue`] if the interval is degenerate or not
///   finite.
/// * [`NumericsError::NoBracket`] if `f(lo)` and `f(hi)` have the same sign.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), nvp_numerics::NumericsError> {
/// let root = nvp_numerics::optim::brent(|x| x * x - 2.0, 0.0, 2.0, 1e-12)?;
/// assert!((root - 2.0_f64.sqrt()).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
pub fn brent<F: FnMut(f64) -> f64>(mut f: F, lo: f64, hi: f64, tol: f64) -> Result<f64> {
    check_interval(lo, hi)?;
    let (mut a, mut b) = (lo, hi);
    let (mut fa, mut fb) = (f(a), f(b));
    if fa == 0.0 {
        return Ok(a);
    }
    if fb == 0.0 {
        return Ok(b);
    }
    if fa.signum() == fb.signum() {
        return Err(NumericsError::NoBracket { f_lo: fa, f_hi: fb });
    }
    if fa.abs() < fb.abs() {
        std::mem::swap(&mut a, &mut b);
        std::mem::swap(&mut fa, &mut fb);
    }
    let mut c = a;
    let mut fc = fa;
    let mut mflag = true;
    let mut d = c;
    for _ in 0..200 {
        if fb == 0.0 || (b - a).abs() < tol {
            return Ok(b);
        }
        let mut s = if fa != fc && fb != fc {
            // Inverse quadratic interpolation.
            a * fb * fc / ((fa - fb) * (fa - fc))
                + b * fa * fc / ((fb - fa) * (fb - fc))
                + c * fa * fb / ((fc - fa) * (fc - fb))
        } else {
            // Secant step.
            b - fb * (b - a) / (fb - fa)
        };
        let bound = (3.0 * a + b) / 4.0;
        let cond1 = s <= bound.min(b) || s >= bound.max(b);
        let cond2 = mflag && (s - b).abs() >= (b - c).abs() / 2.0;
        let cond3 = !mflag && (s - b).abs() >= (c - d).abs() / 2.0;
        let cond4 = mflag && (b - c).abs() < tol;
        let cond5 = !mflag && (c - d).abs() < tol;
        if cond1 || cond2 || cond3 || cond4 || cond5 {
            s = 0.5 * (a + b);
            mflag = true;
        } else {
            mflag = false;
        }
        let fs = f(s);
        d = c;
        c = b;
        fc = fb;
        if fa.signum() != fs.signum() {
            b = s;
            fb = fs;
        } else {
            a = s;
            fa = fs;
        }
        if fa.abs() < fb.abs() {
            std::mem::swap(&mut a, &mut b);
            std::mem::swap(&mut fa, &mut fb);
        }
    }
    Ok(b)
}

/// Maximizes a unimodal function on `[lo, hi]` by golden-section search.
///
/// If the function is not unimodal the result is a local maximum.
///
/// # Errors
///
/// [`NumericsError::InvalidValue`] if the interval is degenerate or not
/// finite.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), nvp_numerics::NumericsError> {
/// let m = nvp_numerics::optim::golden_section_max(|x| -(x - 3.0) * (x - 3.0), 0.0, 10.0, 1e-10)?;
/// assert!((m.x - 3.0).abs() < 1e-7);
/// # Ok(())
/// # }
/// ```
pub fn golden_section_max<F: FnMut(f64) -> f64>(
    mut f: F,
    lo: f64,
    hi: f64,
    tol: f64,
) -> Result<Maximum> {
    check_interval(lo, hi)?;
    const INV_PHI: f64 = 0.618_033_988_749_894_9;
    let mut a = lo;
    let mut b = hi;
    let mut c = b - (b - a) * INV_PHI;
    let mut d = a + (b - a) * INV_PHI;
    let mut fc = f(c);
    let mut fd = f(d);
    for _ in 0..500 {
        if (b - a).abs() < tol {
            break;
        }
        if fc > fd {
            b = d;
            d = c;
            fd = fc;
            c = b - (b - a) * INV_PHI;
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + (b - a) * INV_PHI;
            fd = f(d);
        }
    }
    let x = 0.5 * (a + b);
    Ok(Maximum { x, value: f(x) })
}

fn check_interval(lo: f64, hi: f64) -> Result<()> {
    if !lo.is_finite() {
        return Err(NumericsError::InvalidValue {
            what: "interval lower bound",
            value: lo,
        });
    }
    if !hi.is_finite() || hi <= lo {
        return Err(NumericsError::InvalidValue {
            what: "interval upper bound",
            value: hi,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brent_finds_sqrt2_fast() {
        let mut calls = 0;
        let root = brent(
            |x| {
                calls += 1;
                x * x - 2.0
            },
            0.0,
            2.0,
            1e-13,
        )
        .unwrap();
        assert!((root - std::f64::consts::SQRT_2).abs() < 1e-10);
        // Pure bisection would need ~46 evaluations for a 2-wide interval at
        // 1e-13 tolerance; Brent's interpolation steps must beat that.
        assert!(calls < 40, "brent took {calls} evaluations");
    }

    #[test]
    fn brent_on_cubic() {
        let root = brent(|x| (x - 1.0) * (x + 4.0) * (x + 9.0), 0.0, 3.0, 1e-13).unwrap();
        assert!((root - 1.0).abs() < 1e-9);
    }

    #[test]
    fn brent_rejects_unbracketed_interval() {
        assert!(matches!(
            brent(|x| x * x + 1.0, -1.0, 1.0, 1e-12),
            Err(NumericsError::NoBracket { .. })
        ));
    }

    #[test]
    fn golden_section_finds_parabola_peak() {
        let m = golden_section_max(|x| 5.0 - (x - 2.5) * (x - 2.5), 0.0, 10.0, 1e-10).unwrap();
        assert!((m.x - 2.5).abs() < 1e-6);
        assert!((m.value - 5.0).abs() < 1e-10);
    }

    #[test]
    fn golden_section_handles_boundary_maximum() {
        let m = golden_section_max(|x| x, 0.0, 1.0, 1e-10).unwrap();
        assert!((m.x - 1.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_intervals_are_rejected() {
        assert!(brent(|x| x, 1.0, 1.0, 1e-12).is_err());
        assert!(brent(|x| x, 2.0, 1.0, 1e-12).is_err());
        assert!(brent(|x| x, f64::NAN, 1.0, 1e-12).is_err());
        assert!(golden_section_max(|x| x, 1.0, 1.0, 1e-12).is_err());
    }
}
