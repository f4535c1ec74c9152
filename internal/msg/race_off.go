//go:build !race

package msg

// poisonOnPut makes PutBuf and PutNotices overwrite what they pool; see
// race_on.go.
const poisonOnPut = false
