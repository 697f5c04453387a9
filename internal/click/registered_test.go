package click_test

// Linking the route-lookup element into this package's tests lets
// FuzzParseConfig's RadixIPLookup seeds reach the real constructor and
// its argument checks, not just the parser. iplookup imports click, so
// only an external test package can import it.
import _ "pktpredict/internal/iplookup"
