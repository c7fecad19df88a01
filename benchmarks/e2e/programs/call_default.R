cd_step <- function(x, d = 2) x + d
call_default_run <- function(n) {
  s <- 0
  i <- 0
  while (i < n) {
    s <- cd_step(s)
    i <- i + 1
  }
  s
}
