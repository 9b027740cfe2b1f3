package jumpstart

// Fallback is why a consumer booted without Jump-Start (Section
// VI-A3). It is the one reason vocabulary: the boot protocol, the
// transport client, the multi-store and the fleet all record a
// Fallback, and String is the only place a reason is spelled.
type Fallback uint8

const (
	// FallbackNone means the boot did not fall back; it prints as "".
	FallbackNone Fallback = iota
	// FallbackNoPackage: the store had no (non-excluded) package.
	FallbackNoPackage
	// FallbackUndecodable: the picked packages failed to decode.
	FallbackUndecodable
	// FallbackRevisionMismatch: the picked packages came from another
	// build revision.
	FallbackRevisionMismatch
	// FallbackBootFailed: no consumer server could be built from the
	// picked packages.
	FallbackBootFailed
	// FallbackMaxAttempts: the server ran out of Jump-Start attempts.
	FallbackMaxAttempts
	// FallbackFetchBudget: the transport's per-fetch deadline budget
	// ran out.
	FallbackFetchBudget
	// FallbackReplicasExhausted: every in-region replica failed the
	// fetch.
	FallbackReplicasExhausted

	// NumFallbacks counts the reasons, FallbackNone included.
	NumFallbacks
)

var fallbackNames = [NumFallbacks]string{
	FallbackNoPackage:         "no package available",
	FallbackUndecodable:       "packages undecodable",
	FallbackRevisionMismatch:  "package revision mismatch",
	FallbackBootFailed:        "consumer boot failed",
	FallbackMaxAttempts:       "max attempts exceeded",
	FallbackFetchBudget:       "fetch budget exhausted",
	FallbackReplicasExhausted: "replica failover exhausted",
}

// String returns the reason as reports and summaries print it.
func (f Fallback) String() string { return fallbackNames[f] }
