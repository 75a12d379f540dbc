package backend

// FittedReferencePayload exposes the table-free fitted calibration to
// the external tests, which calibrate on every registered target (the
// target package imports this one through core).
var FittedReferencePayload = referenceFittedPayload
