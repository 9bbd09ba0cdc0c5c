package main

import (
	"math"
	"sort"
	"strconv"
	"strings"

	"kdrsolvers/internal/serve"
)

// Failure classes. A served job fails when the server refuses it, when
// its view cannot be read back, or when its result is not a verified
// solution; each failure lands in exactly one class so a defect shows
// as a count of its own.
const (
	classOK           = "ok"
	classRejected     = "rejected_503"   // 503: queue full or draining
	classClientError  = "http_4xx"       // the server refused the spec
	classTransport    = "transport"      // connection error or non-HTTP failure
	classLostView     = "lost_view"      // 404 on poll (evicted) or never finished
	classNaN          = "nan"            // NaN/Inf residual, or a view the server could not encode
	classBreakdown    = "breakdown"      // the method reported a breakdown
	classError        = "error"          // the job's session failed
	classNotConverged = "not_converged"  // ran out of iterations or restarts
	classResidual     = "residual_check" // claimed convergence, true residual above 1.05·tol
)

// failClasses lists the failure classes in report order.
var failClasses = []string{
	classRejected, classClientError, classTransport, classLostView,
	classNaN, classBreakdown, classError, classNotConverged, classResidual,
}

// residualSlack is the factor by which a true residual may exceed the
// tolerance before a convergence claim counts as false: the host
// recomputation rounds differently from the solver's recurrence.
const residualSlack = 1.05

// classifyResult sorts a finished job's result into a failure class,
// or classOK when it is a verified solution to tolerance tol.
func classifyResult(r *serve.JobResult, tol float64) string {
	switch {
	case r == nil:
		return classLostView
	case !finite(r.Residual) || !finite(r.TrueResidual):
		return classNaN
	case r.Breakdown != "":
		return classBreakdown
	case r.Err != "":
		return classError
	case !r.Converged:
		return classNotConverged
	case r.TrueResidual > residualSlack*tol:
		return classResidual
	}
	return classOK
}

// classifyStatus sorts an HTTP outcome that carries no result: a
// transport error, or a status other than the one expected.
func classifyStatus(status int, err error) string {
	switch {
	case err != nil:
		return classTransport
	case status == 503:
		return classRejected
	case status == 404:
		return classLostView
	case status >= 400 && status < 500:
		return classClientError
	}
	return classTransport
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// tally counts outcomes (of jobs, or of their attempts) per class.
type tally map[string]int

// failed is the number of outcomes in any failure class.
func (t tally) failed() int {
	n := 0
	for c, k := range t {
		if c != classOK {
			n += k
		}
	}
	return n
}

// total is the number of outcomes counted, in any class.
func (t tally) total() int {
	n := 0
	for _, k := range t {
		n += k
	}
	return n
}

// String lists the non-zero failure classes, or "none".
func (t tally) String() string {
	var parts []string
	for _, c := range failClasses {
		if t[c] > 0 {
			parts = append(parts, c+"="+strconv.Itoa(t[c]))
		}
	}
	sort.Strings(parts)
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, " ")
}
