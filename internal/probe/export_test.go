package probe

// CodecRecords hands the every-field fixture to the external test package.
var CodecRecords = codecRecords
