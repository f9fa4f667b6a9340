//! Loss functions and classification metrics.

use cscnn_tensor::Tensor;

/// Softmax cross-entropy over a batch of logits.
///
/// `logits` is `[N, classes]`, `labels` holds `N` class indices. Returns the
/// mean loss and the gradient w.r.t. the logits (already divided by `N`).
///
/// # Panics
///
/// Panics if shapes disagree or any label is out of range.
///
/// # Example
///
/// ```
/// use cscnn_nn::metrics::softmax_cross_entropy;
/// use cscnn_tensor::Tensor;
///
/// // Perfectly confident, correct prediction → near-zero loss.
/// let logits = Tensor::from_vec(vec![10.0, -10.0], &[1, 2]);
/// let (loss, _grad) = softmax_cross_entropy(&logits, &[0]);
/// assert!(loss < 1e-3);
/// ```
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    assert_eq!(logits.shape().rank(), 2, "logits must be [N, classes]");
    let (n, c) = (logits.shape().dim(0), logits.shape().dim(1));
    assert_eq!(labels.len(), n, "labels length must equal batch size");
    let src = logits.as_slice();
    let mut grad = Tensor::zeros(&[n, c]);
    let g = grad.as_mut_slice();
    let mut total_loss = 0.0f64;
    for i in 0..n {
        let row = &src[i * c..(i + 1) * c];
        let label = labels[i];
        assert!(label < c, "label {label} out of range for {c} classes");
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let exp: Vec<f32> = row.iter().map(|&x| (x - max).exp()).collect();
        let sum: f32 = exp.iter().sum();
        let log_sum = sum.ln() + max;
        total_loss += (log_sum - row[label]) as f64;
        let grow = &mut g[i * c..(i + 1) * c];
        for j in 0..c {
            let p = exp[j] / sum;
            grow[j] = (p - if j == label { 1.0 } else { 0.0 }) / n as f32;
        }
    }
    ((total_loss / n as f64) as f32, grad)
}

/// Top-1 accuracy of a batch of logits against labels.
///
/// # Panics
///
/// Panics if shapes disagree.
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> f64 {
    assert_eq!(logits.shape().rank(), 2, "logits must be [N, classes]");
    let (n, c) = (logits.shape().dim(0), logits.shape().dim(1));
    assert_eq!(labels.len(), n, "labels length must equal batch size");
    let src = logits.as_slice();
    let mut correct = 0usize;
    for (i, &label) in labels.iter().enumerate() {
        let row = &src[i * c..(i + 1) * c];
        let pred = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("NaN logit"))
            .map(|(j, _)| j)
            .expect("at least one class");
        if pred == label {
            correct += 1;
        }
    }
    correct as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_log_c_loss() {
        let logits = Tensor::zeros(&[4, 10]);
        let (loss, grad) = softmax_cross_entropy(&logits, &[0, 1, 2, 3]);
        assert!((loss - (10.0f32).ln()).abs() < 1e-5);
        // Gradient rows sum to zero.
        for i in 0..4 {
            let s: f32 = grad.as_slice()[i * 10..(i + 1) * 10].iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let logits = Tensor::from_vec(vec![0.3, -0.2, 0.9, 0.1, 0.5, -0.7], &[2, 3]);
        let labels = [2usize, 0];
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        let eps = 1e-3;
        for idx in 0..6 {
            let mut lp = logits.clone();
            lp.as_mut_slice()[idx] += eps;
            let mut lm = logits.clone();
            lm.as_mut_slice()[idx] -= eps;
            let fp = softmax_cross_entropy(&lp, &labels).0;
            let fm = softmax_cross_entropy(&lm, &labels).0;
            let fd = (fp - fm) / (2.0 * eps);
            assert!((fd - grad.as_slice()[idx]).abs() < 1e-3, "idx={idx}");
        }
    }

    #[test]
    fn accuracy_counts_argmax_hits() {
        let logits = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 0.4, 0.6], &[3, 2]);
        assert!((accuracy(&logits, &[0, 1, 1]) - 1.0).abs() < 1e-12);
        assert!((accuracy(&logits, &[1, 1, 0]) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn numerically_stable_for_large_logits() {
        let logits = Tensor::from_vec(vec![1000.0, 0.0], &[1, 2]);
        let (loss, grad) = softmax_cross_entropy(&logits, &[0]);
        assert!(loss.is_finite() && loss < 1e-6);
        assert!(grad.as_slice().iter().all(|g| g.is_finite()));
    }
}
