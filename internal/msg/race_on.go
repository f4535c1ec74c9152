//go:build race

package msg

// poisonOnPut makes PutBuf and PutNotices overwrite a buffer or notice
// list before pooling it. It is on exactly when the race detector is: the
// builds that hunt for lifetime bugs pay for the fill, the others do not.
const poisonOnPut = true
