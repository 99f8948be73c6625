package core

import "errors"

// Sentinel errors returned by the technique API. Callers match them with
// errors.Is; every error carrying one of these sentinels wraps it, so
// additional context (the offending value, the underlying context error)
// stays visible in the message.
var (
	// ErrNoPlan reports that a plan was required but none is available —
	// e.g. seeding or serving with a nil plan.
	ErrNoPlan = errors.New("pqo: no plan available")
	// ErrBudgetExhausted reports that an operation would exceed the
	// configured plan budget k (§6.3.1).
	ErrBudgetExhausted = errors.New("pqo: plan budget exhausted")
	// ErrCancelled reports that processing stopped because the caller's
	// context was cancelled or its deadline expired. The wrapped chain also
	// matches context.Canceled / context.DeadlineExceeded.
	ErrCancelled = errors.New("pqo: cancelled")
	// ErrInvalidSelectivity reports an instance whose selectivity vector
	// does not match the template's dimensions or holds a value outside
	// (0, 1] (or NaN). Process, SeedInstance and Import reject such
	// vectors before they reach the plan cache.
	ErrInvalidSelectivity = errors.New("pqo: invalid selectivity vector")
	// ErrInvalidConfig reports a rejected configuration option.
	ErrInvalidConfig = errors.New("pqo: invalid configuration")
	// ErrOptimizerTimeout reports that a full optimizer call exceeded the
	// configured WithOptimizerDeadline budget. With degraded fallback
	// enabled the error is absorbed into a Degraded decision; without it
	// the error surfaces to the caller.
	ErrOptimizerTimeout = errors.New("pqo: optimizer deadline exceeded")
	// ErrOptimizerPanic reports that the engine's optimizer panicked.
	// Panics are recovered (the flight is cleaned up, waiters unblocked)
	// and converted into this error — or into a Degraded decision when
	// fallback is enabled.
	ErrOptimizerPanic = errors.New("pqo: optimizer panicked")
	// ErrBreakerOpen reports that the optimizer circuit breaker is open:
	// recent optimizer calls failed or timed out consecutively, so new
	// calls are skipped until the cooldown elapses.
	ErrBreakerOpen = errors.New("pqo: optimizer circuit breaker open")
	// ErrUnavailable reports that degraded-mode fallback was required but
	// impossible: the optimizer is failing (or gated by the breaker) and
	// the plan cache holds nothing to serve instead.
	ErrUnavailable = errors.New("pqo: degraded and no cached plan available")
	// ErrEpochUnsupported reports that an epoch-lifecycle operation
	// (revalidation, epoch-tagged serving) was requested on an engine with
	// no versioned-statistics surface (core.EpochEngine).
	ErrEpochUnsupported = errors.New("pqo: engine has no statistics-epoch lifecycle")
)
