//! Dense LU factorization with partial pivoting: the exact solve of the
//! semi-Markov systems [`renewal`](crate::solve::renewal) builds on a
//! regeneration set larger than `{0}`.

/// A pivot at most this fraction of the matrix's largest entry counts as
/// zero: the matrix is singular to working precision.
const SINGULAR: f64 = 1e-12;

/// `PA = LU` of a square matrix: unit lower `L` below the diagonal, `U` on
/// and above it, row-major; `perm[i]` is the row of `A` that became row `i`.
#[derive(Debug)]
pub(crate) struct Lu {
    k: usize,
    a: Vec<f64>,
    perm: Vec<usize>,
}

impl Lu {
    /// Factors the row-major `k × k` matrix `a`, each column pivoting on its
    /// largest remaining entry. `Err(c)` names the first column with no
    /// pivot above [`SINGULAR`] of the largest entry.
    pub(crate) fn factor(mut a: Vec<f64>, k: usize) -> Result<Lu, usize> {
        let floor = SINGULAR * a.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        let mut perm: Vec<usize> = (0..k).collect();
        for c in 0..k {
            let p =
                (c..k).fold(c, |p, r| if a[r * k + c].abs() > a[p * k + c].abs() { r } else { p });
            let pivot = a[p * k + c].abs();
            if pivot.is_nan() || pivot <= floor {
                return Err(c);
            }
            if p != c {
                for j in 0..k {
                    a.swap(p * k + j, c * k + j);
                }
                perm.swap(p, c);
            }
            let (top, rest) = a.split_at_mut((c + 1) * k);
            let pivot = &top[c * k..];
            for row in rest.chunks_exact_mut(k) {
                let f = row[c] / pivot[c];
                row[c] = f;
                for (x, u) in row[c + 1..].iter_mut().zip(&pivot[c + 1..]) {
                    *x -= f * u;
                }
            }
        }
        Ok(Lu { k, a, perm })
    }

    /// Solves `A x = b` in place.
    pub(crate) fn solve(&self, b: &mut [f64]) {
        let (k, a) = (self.k, &self.a);
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        for i in 0..k {
            let lower: f64 = (0..i).map(|j| a[i * k + j] * x[j]).sum();
            x[i] -= lower;
        }
        for i in (0..k).rev() {
            let upper: f64 = (i + 1..k).map(|j| a[i * k + j] * x[j]).sum();
            x[i] = (x[i] - upper) / a[i * k + i];
        }
        b.copy_from_slice(&x);
    }

    /// Solves `Aᵀ x = b` in place: `Uᵀ v = b`, `Lᵀ w = v`, then `x = Pᵀ w`.
    pub(crate) fn solve_transposed(&self, b: &mut [f64]) {
        let (k, a) = (self.k, &self.a);
        let mut w = b.to_vec();
        for i in 0..k {
            let lower: f64 = (0..i).map(|j| a[j * k + i] * w[j]).sum();
            w[i] = (w[i] - lower) / a[i * k + i];
        }
        for i in (0..k).rev() {
            let upper: f64 = (i + 1..k).map(|j| a[j * k + i] * w[j]).sum();
            w[i] -= upper;
        }
        for (&p, &wi) in self.perm.iter().zip(&w) {
            b[p] = wi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 3 × 3 system that needs a row swap in every column.
    #[test]
    fn solves_both_ways_with_pivoting() {
        let a = vec![0.0, 2.0, 1.0, 1.0, 1.0, 0.0, 3.0, 0.0, 1.0];
        let lu = Lu::factor(a.clone(), 3).unwrap();
        let x = [1.0, -2.0, 0.5];
        let mut b: Vec<f64> = (0..3).map(|i| (0..3).map(|j| a[i * 3 + j] * x[j]).sum()).collect();
        lu.solve(&mut b);
        let mut bt: Vec<f64> = (0..3).map(|j| (0..3).map(|i| a[i * 3 + j] * x[i]).sum()).collect();
        lu.solve_transposed(&mut bt);
        for i in 0..3 {
            assert!((b[i] - x[i]).abs() < 1e-15, "solve {b:?}");
            assert!((bt[i] - x[i]).abs() < 1e-15, "transposed {bt:?}");
        }
    }

    /// A rank-deficient matrix names the column that has no pivot.
    #[test]
    fn singular_matrix_names_its_column() {
        let a = vec![1.0, 2.0, 3.0, 2.0, 4.0, 6.0, 0.0, 1.0, 1.0];
        assert_eq!(Lu::factor(a, 3).unwrap_err(), 2);
    }
}
