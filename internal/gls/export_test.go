package gls

// Parses hands the stack-parse count to the external test package.
func Parses() uint64 { return parses.Load() }
