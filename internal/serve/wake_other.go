//go:build !linux

package serve

// fileWake has no event source off Linux: Watch's ticker is its only
// wake there.
func fileWake(string) (wake <-chan struct{}, stop func()) { return nil, func() {} }
