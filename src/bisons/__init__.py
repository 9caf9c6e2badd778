"""Online portfolio selection with polylogarithmic regret and no gradient bounds.

The package implements an epoch-structured follow-the-regularized-leader
scheme over biased quadratic surrogate losses with log-barrier
regularization (the BISONS algorithm), its generalization from the
probability simplex to the set of trace-one PSD Hermitian matrices
(Schrodinger's BISONS), plain log-barrier FTRL on the true log losses
together with an adversarial sequence generator that drives its regret up,
and an experiment harness with hindsight comparators and diagnostics.
"""
