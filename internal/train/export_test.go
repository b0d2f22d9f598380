package train

// Test helpers shared with the external package train_test.
var (
	RunCluster = runCluster
	SyncConfig = syncConfig
)
