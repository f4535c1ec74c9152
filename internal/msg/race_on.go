//go:build race

package msg

// poisonOnPut makes PutBuf overwrite a buffer before pooling it. It is
// on exactly when the race detector is: the builds that hunt for
// lifetime bugs pay for the fill, the others do not.
const poisonOnPut = true
