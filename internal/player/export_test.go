package player

// Reference loops for the external differential test.
var (
	SimulateLiveRef   = simulateLiveRef
	SimulateSharedRef = simulateSharedRef
)
