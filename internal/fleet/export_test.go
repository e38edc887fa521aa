package fleet

// MaxAnswerBytes exposes the router's answer bound to the external tests.
const MaxAnswerBytes = maxAnswerBytes
