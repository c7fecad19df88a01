memo_run <- function(n) {
  last <- -1
  lastv <- 0
  sq <- function(x) {
    if (x == last) lastv
    else {
      last <<- x
      lastv <<- x * x
      lastv
    }
  }
  s <- 0
  i <- 0
  while (i < n) {
    s <- s + sq(i %% 8)
    i <- i + 1
  }
  s
}
