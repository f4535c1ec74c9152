//go:build !race

package msg

// poisonOnPut makes PutBuf overwrite a buffer before pooling it; see
// race_on.go.
const poisonOnPut = false
