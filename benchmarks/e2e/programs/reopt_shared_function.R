# a helper shared by two callers with different argument types: its type
# feedback merges both and it compiles generically from the start
shared_dot <- function(a, b, n) {
  s <- 0
  for (i in 1:n) s <- s + a[[i]] * b[[i]]
  s
}

caller_int <- function(x, n, reps) {
  s <- 0
  for (r in 1:reps) s <- s + shared_dot(x, x, n)
  s
}

caller_dbl <- function(y, n, reps) {
  s <- 0
  for (r in 1:reps) s <- s + shared_dot(y, y, n)
  s
}

shared_run <- function(x, y, n, reps) {
  caller_int(x, n, reps) + caller_dbl(y, n, reps)
}
