//! Property-based tests of the numerics crate on randomly generated
//! chains and systems.

use nvp_numerics::ctmc::Ctmc;
use nvp_numerics::dense::DenseMatrix;
use nvp_numerics::dtmc::stationary_distribution;
use nvp_numerics::poisson::poisson_weights;
use nvp_numerics::sparse::{CsrBuilder, CsrMatrix, SparseRow};
use proptest::prelude::*;

/// Strategy: a random irreducible-ish CTMC over `n` states built from a
/// Hamiltonian cycle (guaranteeing irreducibility) plus random extra edges.
fn arb_ctmc() -> impl Strategy<Value = Ctmc> {
    (2usize..7)
        .prop_flat_map(|n| {
            let cycle_rates = prop::collection::vec(0.01..10.0f64, n);
            let extra = prop::collection::vec((0..n, 0..n, 0.01..10.0f64), 0..8);
            (Just(n), cycle_rates, extra)
        })
        .prop_map(|(n, cycle_rates, extra)| {
            let mut c = Ctmc::new(n);
            for (i, &r) in cycle_rates.iter().enumerate() {
                c.add_rate(i, (i + 1) % n, r).unwrap();
            }
            for (from, to, rate) in extra {
                if from != to {
                    c.add_rate(from, to, rate).unwrap();
                }
            }
            c
        })
}

/// Strategy: `(rows, cols, entries per row)` with few columns, so most rows
/// repeat columns, and values of mixed sign and magnitude, so the sums of
/// duplicates depend on the order of the additions and some cancel.
fn arb_rows() -> impl Strategy<Value = (usize, Vec<Vec<(usize, f64)>>)> {
    (1usize..6, 1usize..8).prop_flat_map(|(cols, rows)| {
        let value = prop_oneof![-1e3..1e3f64, 0.0..1e-3f64, Just(0.0), Just(1.0), Just(-1.0)];
        let entry = (0..cols, value);
        let row = prop::collection::vec(entry, 0..12);
        (Just(cols), prop::collection::vec(row, rows))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The row constructor and the triplet builder share one summation
    /// rule: entries pushed row by row give bitwise-equal matrices.
    #[test]
    fn row_constructor_matches_builder_bitwise(shape in arb_rows()) {
        let (cols, rows) = shape;
        let mut b = CsrBuilder::new(rows.len(), cols);
        for (r, row) in rows.iter().enumerate() {
            for &(c, v) in row {
                b.push(r, c, v);
            }
        }
        let built = b.build();
        let assembled = CsrMatrix::from_rows(
            cols,
            rows.iter().cloned().map(SparseRow::compact).collect(),
        );
        prop_assert_eq!(built.nnz(), assembled.nnz());
        for r in 0..rows.len() {
            let bits = |m: &CsrMatrix| -> Vec<(usize, u64)> {
                m.row_entries(r).map(|(c, v)| (c, v.to_bits())).collect()
            };
            prop_assert_eq!(bits(&built), bits(&assembled), "row {}", r);
            prop_assert!(built.row_entries(r).all(|(_, v)| v != 0.0));
        }
    }

    /// Transient distributions conserve probability mass and converge to
    /// the stationary distribution of the uniformized chain.
    #[test]
    fn transient_conserves_and_converges(ctmc in arb_ctmc(), t in 0.0..50.0f64) {
        let n = ctmc.n_states();
        let mut pi0 = vec![0.0; n];
        pi0[0] = 1.0;
        let (pi_t, _, _) = ctmc.transient_and_sojourn(&pi0, t, 1e-12).unwrap();
        prop_assert!((pi_t.iter().sum::<f64>() - 1.0).abs() < 1e-8);
        prop_assert!(pi_t.iter().all(|&p| p >= -1e-12));
        // At a long horizon relative to the slowest rate, compare with the
        // stationary vector.
        let (pi_inf, _, _) = ctmc.transient_and_sojourn(&pi0, 2000.0, 1e-12).unwrap();
        let stat = stationary_distribution(&ctmc.uniformize().0).unwrap();
        for (a, b) in pi_inf.iter().zip(&stat) {
            prop_assert!((a - b).abs() < 1e-5, "transient {a} vs stationary {b}");
        }
    }

    /// Accumulated sojourns integrate the transient distribution: they sum
    /// to t and are monotone in t.
    #[test]
    fn accumulated_sojourn_totals_t(ctmc in arb_ctmc(), t in 0.01..20.0f64) {
        let n = ctmc.n_states();
        let mut pi0 = vec![0.0; n];
        pi0[0] = 1.0;
        let (_, l, _) = ctmc.transient_and_sojourn(&pi0, t, 1e-12).unwrap();
        prop_assert!((l.iter().sum::<f64>() - t).abs() < 1e-7 * t.max(1.0));
        let (_, l2, _) = ctmc.transient_and_sojourn(&pi0, t * 2.0, 1e-12).unwrap();
        for (a, b) in l.iter().zip(&l2) {
            prop_assert!(b + 1e-9 >= *a, "sojourn must grow with t");
        }
    }

    /// LU solves random diagonally dominant systems to small residuals.
    #[test]
    fn lu_solves_diagonally_dominant_systems(
        entries in prop::collection::vec(-1.0..1.0f64, 16),
        rhs in prop::collection::vec(-10.0..10.0f64, 4),
    ) {
        let n = 4;
        let mut a = DenseMatrix::zeros(n, n);
        for i in 0..n {
            let mut row_sum = 0.0;
            for j in 0..n {
                if i != j {
                    let v = entries[i * n + j];
                    a.set(i, j, v);
                    row_sum += v.abs();
                }
            }
            a.set(i, i, row_sum + 1.0); // strict diagonal dominance
        }
        let x = a.solve(&rhs).unwrap();
        let back = a.matvec(&x).unwrap();
        for (b1, b2) in back.iter().zip(&rhs) {
            prop_assert!((b1 - b2).abs() < 1e-9);
        }
    }

    /// Poisson weights always form a (truncated) distribution with small
    /// tail.
    #[test]
    fn poisson_weights_are_distribution(lambda in 0.0..2000.0f64) {
        let w = poisson_weights(lambda, 1e-10).unwrap();
        let total: f64 = w.weights.iter().sum();
        prop_assert!(total <= 1.0 + 1e-9);
        prop_assert!(total >= 1.0 - 1e-6, "lost mass at lambda={lambda}: {total}");
        prop_assert!(w.weights.iter().all(|&x| x >= 0.0));
    }
}
